"""The package namespace: ``__all__`` lists exactly the public names."""

import inspect

import entclone


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(entclone).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(entclone.__all__) == sorted(public)
    assert len(entclone.__all__) == len(set(entclone.__all__))
