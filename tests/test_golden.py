"""Replays the golden CLI transcript, tests/golden/cli.jsonl: every call
must give the exit code, stdout and stderr it recorded.  After a change
that alters output on purpose, regenerate it with tests/golden/make_cli.py."""

import json

from golden import make_cli


def test_every_recorded_call_answers_as_recorded(tmp_path):
    recorded = [json.loads(line) for line in make_cli.TRANSCRIPT.read_text().splitlines()]
    assert len(recorded) == len(make_cli.grid())
    replayed = make_cli.transcript([(r["argv"], r["env"]) for r in recorded], tmp_path)
    changed = [(r["argv"], r["env"], got) for r, got in zip(recorded, replayed) if got != r]
    assert not changed, f"{len(changed)} calls differ from the transcript; the first: {changed[:3]}"
