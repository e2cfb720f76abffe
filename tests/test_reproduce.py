"""The showcase artifacts of scripts/reproduce.sh, pinned by SHA-256.

The script's nine CLI commands run in process through ``cli.main`` into a
temporary directory; every artifact must match its recorded digest, so a
change that alters any output byte has to say so by updating this table.
"""
import hashlib
import shlex
from pathlib import Path

from doubleline.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.sh"

DIGESTS = {
    "single.fold": "686d591bf1d699771d82886f8acbea1246cac9a06b8f5c77b6cfe704aa4b26a3",
    "dl_miura.fold": "7c4da02201d310b67b2cc2b74cb834fd66eb68ded74461e71410685b3d4e05b2",
    "dl_single.fold": "838c6a98437ce63521677d3025f4e00ae40456e28308f6ef4a01608eafb55a37",
    "regimes.csv": "ab016089fc2c29a3125a39ec45a3aa10734ef4e5fabd1dee6418367cc4dfa8ff",
    "motion.csv": "6dca73f1301418cdb0c76b3db994f926dad83b72ecdd45d5da74c821353a816e",
    "state.obj": "a3ec9846cfbbb3162f51a38e2bbd862f4b91eeea241e339c7727aa0f1980e2e8",
    "panels.obj": "1dbee4b561f48368fd37067e753ed076430d8ac6a8652c65cf94a99e4a230cdf",
    "clearance.csv": "0ed0c2495da424fc43333f61e8acc905fc2ffb1a119a8185b3af8d19949ea7ce",
    "dl_miura.svg": "5bc60026403f283ac196e620d3f820e833e00b65a31f676db54b020c64c9ff9f",
}


def script_commands(out_dir: Path) -> list[list[str]]:
    """The `python3 -m doubleline ...` argument lists of the script, in order."""
    text = SCRIPT.read_text().replace("\\\n", " ")
    prefix = ["python3", "-m", "doubleline"]
    commands = []
    for line in text.splitlines():
        words = shlex.split(line.replace('"$dir', f'"{out_dir}'))
        if words[:3] == prefix:
            commands.append(words[3:])
    return commands


def test_reproduce_artifacts_match_recorded_digests(tmp_path, capsysbinary):
    commands = script_commands(tmp_path)
    assert len(commands) == len(DIGESTS)
    for argv in commands:
        assert main(argv) == 0, (argv, capsysbinary.readouterr().err)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DIGESTS
    }
    assert got == DIGESTS
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(DIGESTS)
