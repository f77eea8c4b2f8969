import contextlib
import io
import warnings

import numpy as np
import pytest

from bibfactor import normalize_record
from bibfactor.cli import main
from bibfactor.fixture import fixture_table
from bibfactor.verify import run_verification


def run_main(argv):
    """Exit code, stdout and stderr of ``cli.main`` on ``argv``, in-process.

    A ``SystemExit`` (a usage error, ``--help``) gives its code, as the
    installed script would. ``main`` prints each warning a command raises
    as a ``note:`` line, so a warning that escapes it fails the calling
    test, with or without pytest's warning capture. No filter is set here:
    ``main`` runs under the caller's filters.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    if caught:
        pytest.fail(f"main({argv}) let warnings escape: "
                    f"{[str(w.message) for w in caught]}")
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def numpy_state_kept():
    """Fail a test that leaves numpy's ufunc buffer size or floating-point
    error handling other than it found them. Both are global to the thread,
    so a change would carry over into every later test; it is undone before
    the failure is reported."""
    before = np.getbufsize(), np.geterr()
    yield
    after = np.getbufsize(), np.geterr()
    if after != before:
        np.setbufsize(before[0])
        np.seterr(**before[1])
        pytest.fail(f"numpy state (bufsize, errors) went from {before} to {after}")


@pytest.fixture
def five_paper_record():
    return normalize_record("x", [10, 8, 5, 4, 3])


@pytest.fixture(scope="session")
def fixture():
    return fixture_table()


@pytest.fixture(scope="session")
def verification_report():
    # shared across the acceptance criteria; one full deterministic run
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_verification()
