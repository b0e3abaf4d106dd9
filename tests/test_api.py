"""The public package surface."""

import bolab


def test_every_exported_name_resolves():
    missing = [name for name in bolab.__all__ if not hasattr(bolab, name)]
    assert missing == []
    assert len(set(bolab.__all__)) == len(bolab.__all__)
