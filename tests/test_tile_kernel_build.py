"""The Stage-3 tile kernel is compiled on first import, with no fallback.

``repro.gaussians.rasterize`` builds ``tile_kernel.c`` with ``cc`` into
``__pycache__/`` next to the source.  With no compiler on ``PATH`` and
an empty cache, the import must fail loudly, naming the command it tried,
rather than fall back to another Stage-3 path.  Where the cache cannot be
written, the kernel is built in a private temporary directory instead.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "repro"


def _run_on_copy(tmp_path, code, block_cache=False, **env):
    """Run ``code`` against a copy of the package with an empty build cache.

    With ``block_cache`` a plain file stands where the cache directory
    belongs, so nothing can be written there.
    """
    shutil.copytree(
        PACKAGE, tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    if block_cache:
        (tmp_path / "repro" / "gaussians" / "__pycache__").touch()
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(tmp_path), **env},
        capture_output=True, text=True, timeout=120,
    )


def test_import_without_compiler_fails_naming_the_command(tmp_path):
    empty_bin = tmp_path / "bin"
    empty_bin.mkdir()
    result = _run_on_copy(
        tmp_path, "import repro.gaussians.rasterize", PATH=str(empty_bin)
    )
    assert result.returncode != 0
    assert "ImportError: cannot build the Stage-3 tile kernel" in result.stderr
    assert "`cc -O2 -ffp-contract=off -fPIC -shared" in result.stderr
    assert not list((tmp_path / "repro").rglob("tile_kernel-*.so"))


def test_unwritable_cache_builds_in_a_private_directory(tmp_path):
    code = (
        "import os, numpy as np\n"
        "from repro.gaussians import rasterize\n"
        "from repro.gaussians.tiles import TileGrid\n"
        "pixels = TileGrid(width=4, height=4).tile_pixel_centers(0)\n"
        "bound = rasterize.alpha_upper_bound(\n"
        "    pixels, np.array([[2.0, 2.0]]), np.array([[1.0, 0.0, 1.0]]),\n"
        "    np.array([0.5]))\n"
        "assert bound[0] >= 0.5, bound\n"
        "print(rasterize._kernel._name, os.path.exists(rasterize._kernel._name))\n"
    )
    result = _run_on_copy(tmp_path, code, block_cache=True)
    assert result.returncode == 0, result.stderr
    path, exists = result.stdout.split()
    assert not path.startswith(str(tmp_path))
    # The private directory is removed once the kernel is loaded.
    assert exists == "False"
