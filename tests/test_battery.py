"""Every command of the byte battery keeps its exit code and its artifact bytes."""

import json

import battery


def test_battery_keeps_every_byte(tmp_path):
    manifest = json.loads(battery.MANIFEST.read_text())["commands"]
    assert [(e["argv"], e["env"]) for e in manifest] == battery.COMMANDS, \
        "COMMANDS and the manifest differ; regenerate it with tests/battery.py"
    battery.prepare(tmp_path)
    changed = []
    for entry in manifest:
        code, artifacts = battery.run_command(entry["argv"], entry["env"], tmp_path)
        if (code, artifacts) != (entry["exit"], entry["artifacts"]):
            changed.append(" ".join(entry["argv"]))
    assert not changed, f"{len(changed)} commands changed:\n" + "\n".join(changed)
