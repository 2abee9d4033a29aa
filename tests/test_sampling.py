import pytest

from clover_forge.sampling import sample_indices


def test_negative_size_is_refused():
    with pytest.raises(ValueError, match=r"^sample size must be >= 0, got -1$"):
        sample_indices(5, -1, seed=0)


def test_oversample_names_the_size_and_the_population():
    with pytest.raises(ValueError, match=r"^cannot sample 6 items from a population of 5$"):
        sample_indices(5, 6, seed=0)
