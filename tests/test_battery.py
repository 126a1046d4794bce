"""Every command of the byte battery keeps its exit code and its artifact bytes."""

import json
import warnings

import battery

from localgd import _kernels


def _changed(root):
    """The commands of the manifest whose exit code or artifacts differ when run in ``root``."""
    manifest = json.loads(battery.MANIFEST.read_text())["commands"]
    assert [(e["argv"], e["env"]) for e in manifest] == battery.COMMANDS, \
        "COMMANDS and the manifest differ; regenerate it with tests/battery.py"
    battery.prepare(root)
    changed = []
    for entry in manifest:
        code, artifacts = battery.run_command(entry["argv"], entry["env"], root)
        if (code, artifacts) != (entry["exit"], entry["artifacts"]):
            changed.append(" ".join(entry["argv"]))
    return changed


def test_battery_keeps_every_byte(tmp_path):
    changed = _changed(tmp_path)
    assert not changed, f"{len(changed)} commands changed:\n" + "\n".join(changed)


def test_battery_keeps_every_byte_without_a_compiler(tmp_path, monkeypatch, c_switch):
    # a fresh process that cannot build the library: every command runs the Python bodies
    monkeypatch.setattr(_kernels, "_CC", "localgd-no-such-compiler")
    _kernels._library.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught, c_switch(steps=0):
            warnings.simplefilter("always")
            changed = _changed(tmp_path)
    finally:
        _kernels._library.cache_clear()
    assert not changed, f"{len(changed)} commands changed:\n" + "\n".join(changed)
    # the process reached C_MIN_WORK and asked for the library once
    assert sum("could not build the C kernels" in str(w.message) for w in caught) == 1
