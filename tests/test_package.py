import msquad


def test_all_exports_resolve():
    missing = [name for name in msquad.__all__ if not hasattr(msquad, name)]
    assert missing == []
