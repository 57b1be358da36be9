"""Hypothesis fuzz of the command-line interface, run in-process.

Whatever the flags, ``repro`` either succeeds — exit 0 and a report on
stdout — or refuses with exit 2 and a one-line message as the last
line of stderr: ``repro: error: ...`` for what the library rejects,
``repro <command>: error: ...`` for what argparse rejects (it raises
``SystemExit(2)``).  It never shows a traceback.

The pools mix valid values with unknown model, device,
architecture, scheduler, row-policy and arbiter names, layers the
model lacks, non-positive counts, out-of-range and non-finite
``--funnel-topk`` values with and without the funnel, a deleted
strategy and ``--analytical`` on a contended channel; the listing
subcommands run too (``models`` with and without ``--detail``).  They
stay on LeNet-5, ``tiny`` and AlexNet with at most four requestors,
so the whole file runs in seconds.  A non-default controller runs the
cycle simulator, so the scheduler, row policy and arbiter are drawn
only on the ``tiny`` device, and there with valid architectures and
requestor counts, so that most such draws reach the simulator.
Characterizations go to the session's throwaway on-disk store.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main

MODELS = ("lenet5", "tiny", "alexnet", "no-such-model")
LAYERS = ("C1", "CONV1", "NO-SUCH-LAYER")
DEVICES = ("tiny", "ddr9-9999")
ARCHITECTURES = ("DDR3", "SALP-MASA", "DDR9")
COUNTS = ("-1", "0", "1", "2", "4")
FUNNEL_TOPK = ("-1", "0", "1e-300", "5", "100", "101", "nan", "inf")
STRATEGY_NAMES = ("exhaustive", "funnel", "random")
SCHEDULERS = ("fcfs", "fr-fcfs", "elevator")
ROW_POLICIES = ("open", "closed", "timeout", "ajar")
ARBITERS = ("round-robin", "fixed-priority", "age-based", "lottery")


def _flag(name, values):
    """No flag, or ``[name, value]`` with a value from ``values``."""
    return st.one_of(
        st.just([]), st.sampled_from(values).map(lambda value: [name, value]))


def _tokens(*flags):
    """The tokens of ``flags``, each drawn once, in order."""
    return st.tuples(*flags).map(
        lambda drawn: [token for flag in drawn for token in flag])


def _argv(command, *flags):
    """``[command, *tokens]`` with each of ``flags`` drawn once."""
    return _tokens(*flags).map(lambda tokens: [command] + tokens)


WORKLOAD = (_flag("--model", MODELS), _flag("--layer", LAYERS),
            _flag("--batch", COUNTS), _flag("--bytes-per-element", COUNTS))
SCENARIO = st.one_of(
    _tokens(_flag("--device", DEVICES), _flag("--arch", ARCHITECTURES),
            _flag("--requestors", COUNTS)),
    _tokens(st.just(["--device", "tiny"]),
            _flag("--arch", ARCHITECTURES[:-1]),
            _flag("--requestors", ("1", "2", "4")),
            _flag("--scheduler", SCHEDULERS),
            _flag("--row-policy", ROW_POLICIES),
            _flag("--arbiter", ARBITERS)),
)

ARGV = st.one_of(
    _argv("dse", *WORKLOAD, SCENARIO,
          _flag("--strategy", STRATEGY_NAMES),
          _flag("--funnel-topk", FUNNEL_TOPK)),
    _argv("edp", *WORKLOAD, SCENARIO),
    _argv("characterize", SCENARIO,
          st.sampled_from([[], ["--analytical"]])),
    _argv("traffic", *WORKLOAD, _flag("--device", DEVICES)),
    _argv("models", st.sampled_from([[], ["--detail"]]),
          _flag("--model", MODELS)),
    st.sampled_from(
        [["policies"], ["arbiters"], ["strategies"], ["devices"]]),
)


def _run(argv):
    """``(exit code, stdout, stderr)`` of ``repro argv``, in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as usage_error:
            code = usage_error.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400)
@given(ARGV)
def test_exit_0_with_a_report_or_exit_2_with_one_error_line(argv):
    code, out, err = _run(argv)
    assert "Traceback" not in err
    if code == 0:
        assert out.strip()
        return
    assert code == 2, (argv, code, err)
    last = err.rstrip("\n").splitlines()[-1]
    assert last.startswith(("repro: error: ", f"repro {argv[0]}: error: ")), \
        (argv, err)
