import spinaldim


def test_all_names_exist_and_are_sorted():
    # a deleted function must leave no stale export behind
    missing = [name for name in spinaldim.__all__ if not hasattr(spinaldim, name)]
    assert missing == []
    assert spinaldim.__all__ == sorted(spinaldim.__all__)
    assert len(set(spinaldim.__all__)) == len(spinaldim.__all__)
