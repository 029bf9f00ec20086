import types

import fluxsense


def test_all_lists_every_public_name_once():
    # a name imported into the package but left out of __all__, or listed
    # there after its import went, shows here
    public = {name for name, value in vars(fluxsense).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(fluxsense.__all__) == len(set(fluxsense.__all__)), "a name is listed twice"
    assert set(fluxsense.__all__) == public
