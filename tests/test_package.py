"""The package's public surface."""
import starscatter


def test_every_export_resolves_once():
    names = starscatter.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(starscatter, name) is not None
