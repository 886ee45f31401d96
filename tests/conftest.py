import contextlib
import io
from collections import namedtuple

import pytest

from entwine import corpus
from entwine.smash import smash_coproduct, smash_product

from oracles import corpus_dqgs, corpus_monoidal_datums


@pytest.fixture(scope="session")
def h4():
    return corpus.sweedler_h4()


@pytest.fixture(scope="session")
def kz2():
    return corpus.cyclic_group_algebra(2)


@pytest.fixture(scope="session")
def dual_kz2():
    return corpus.dual_cyclic_group_algebra(2)


@pytest.fixture(scope="session")
def yd_h4(h4):
    return corpus.yd_datum(h4)


@pytest.fixture(scope="session")
def long_h4(h4):
    return corpus.long_datum(h4, h4)


@pytest.fixture(scope="session")
def long_kz2(kz2):
    return corpus.long_datum(kz2, kz2)


@pytest.fixture(scope="session")
def yd_dqg_h4(h4):
    return corpus.yd_dqg(h4)


@pytest.fixture(scope="session")
def long_dqg_kz2():
    return corpus_dqgs()["long_dqg_kz2"]


@pytest.fixture(scope="session")
def double_h4(yd_h4):
    return smash_product(yd_h4)


@pytest.fixture(scope="session")
def cosmash_yd_h4(yd_h4):
    return smash_coproduct(yd_h4)


@pytest.fixture(scope="session")
def monoidal_datums():
    return corpus_monoidal_datums()


@pytest.fixture(scope="session")
def dqgs():
    return corpus_dqgs()


CliResult = namedtuple("CliResult", "exit_code output stdout exception")


class CliRunner:
    """Runs a command line through entwine.cli.main in this process.

    .output is stdout followed by stderr (a command writes to only one of
    them), .stdout is stdout alone, and .exception is what ended a run that
    did not exit 0: the SystemExit, or an error the command did not catch.
    """

    @staticmethod
    def invoke(cli, args, prog_name=None) -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli(list(args), prog_name=prog_name)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                exception = exc if code else None
            except Exception as exc:  # noqa: BLE001 - reported to the test
                code, exception = 1, exc
        return CliResult(code, out.getvalue() + err.getvalue(), out.getvalue(), exception)


@pytest.fixture(scope="session")
def runner():
    return CliRunner()
