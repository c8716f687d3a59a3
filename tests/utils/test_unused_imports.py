"""The stdlib unused-import checker (``tools/unused_imports.py``).

The checker is CI's lint gate, so these tests pin what it flags and what
it exempts, and keep the repository itself clean under it.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))
from unused_imports import main, unused_imports  # noqa: E402


def test_flags_module_and_function_level_imports():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from pathlib import Path, PurePath\n"
        "def f():\n"
        "    import json\n"
        "    return Path('.')\n"
    )
    assert unused_imports(source) == [
        (1, "os"), (2, "np"), (3, "PurePath"), (5, "json"),
    ]


def test_reads_in_any_form_count_as_uses():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Sequence\n"
        "from collections import OrderedDict\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Sequence[int]') -> 'np.ndarray':\n"
        "    return os.path.join(x)\n"
        "class C(OrderedDict):\n"
        "    pass\n"
    )
    assert unused_imports(source) == []


def test_noqa_exempts_only_f401_or_bare():
    source = (
        "import os  # noqa\n"
        "import re  # noqa: F401\n"
        "import json  # noqa: E402\n"
    )
    assert unused_imports(source) == [(3, "json")]


def test_init_files_are_exempt(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from os import path\n")
    (package / "mod.py").write_text("import os\n")
    assert main([str(package)]) == 1
    (package / "mod.py").write_text("import os\nos.getcwd()\n")
    assert main([str(package)]) == 0


def test_repository_has_no_unused_imports(capsys):
    assert main([]) == 0, capsys.readouterr().out
