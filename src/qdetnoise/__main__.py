"""Allow ``python -m qdetnoise``; the ``qdetnoise`` console script runs
:func:`run` too."""

import gc

from .cli import main


def run() -> int:
    """Run the command line of this process, as :func:`qdetnoise.cli.main`.

    The objects the import left are permanent for a one-command process,
    so they are moved out of the collector's reach (``gc.freeze``) before
    the command runs: no collection during the run, nor the full ones at
    shutdown, traverses them again. The command loads its own layers, and
    numpy with them, after that freeze, so ``run`` freezes once more when
    the command returns, and shutdown's collections skip those objects too.
    A caller of ``cli.main`` inside its own process keeps its collector as
    it is.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
