import gjbd


def test_all_names_resolve_once():
    names = gjbd.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(gjbd, name)]
    assert missing == []
