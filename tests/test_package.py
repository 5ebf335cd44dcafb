"""The package's public surface."""

import cliffcert


def test_every_exported_name_exists():
    missing = [name for name in cliffcert.__all__
               if not hasattr(cliffcert, name)]
    assert missing == []
