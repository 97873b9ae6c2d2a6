import fdrelay as fd
from fdrelay import analysis, model, phase, solver

MODULES = (model, phase, analysis, solver)


def test_public_names_are_unique_and_resolve_to_their_module():
    assert len(fd.__all__) == len(set(fd.__all__))
    assert set(fd.__all__) == {n for m in MODULES for n in m.__all__} | {"__version__"}
    for m in MODULES:
        for name in m.__all__:
            assert getattr(fd, name) is getattr(m, name), f"{m.__name__}.{name}"
