"""The mutation gate's lifetime (tools/mutants.py): a stopped gate leaves nothing behind."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(os.name != "posix", reason="needs SIGTERM and process groups")
def test_a_stopped_gate_leaves_no_copy_and_no_test_run(tmp_path):
    # SIGTERM (a cancelled or timed-out CI job) while the killers run in the gate's checkout
    # copy: the copy is removed and the test run in it ends.  The whole gate is not started
    # here: where a mutant survived its killers, it would run all of tier-1, this test too
    script = ("import sys; sys.path.insert(0, 'tools'); import mutants\n"
              "with mutants.checkout_copy() as (copy, env):\n"
              "    print(copy, flush=True)\n"
              "    mutants.run_tests(copy, env, ['tests/test_lp.py'])\n")
    with subprocess.Popen([sys.executable, "-c", script], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          env=dict(os.environ, TMPDIR=str(tmp_path)), start_new_session=True) as child:
        try:
            copy = Path(child.stdout.readline().strip())
            assert copy.is_dir() and copy.is_relative_to(tmp_path)
            time.sleep(1.0)
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=60) == 128 + signal.SIGTERM
            assert not copy.exists()
            with pytest.raises(ProcessLookupError):
                os.killpg(child.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
