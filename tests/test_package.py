"""The package namespace: what ``import tiersim`` offers."""

from __future__ import annotations

import types

import tiersim


def test_all_lists_each_public_name_once_and_every_one_resolves():
    assert len(tiersim.__all__) == len(set(tiersim.__all__))
    for name in tiersim.__all__:
        assert hasattr(tiersim, name), name
    # submodules (tiersim.model, ...) are bound too, but are not exports
    public = {
        name
        for name, value in vars(tiersim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(tiersim.__all__)
