"""The dynamic surface gate (``tests/dynamic_surface.py``) against itself:
one root over a tiny tree under the call hook."""

from tests.dynamic_surface import never_called, never_set, run
from tests.test_surface import _write


def _run_demo(tmp_path):
    """The tiny tree, and its one root's ``(entered, given, failed)``."""
    _write(
        tmp_path,
        {
            "src/pkg/__init__.py": "",
            "src/pkg/mod.py": '''
                import abc

                def called():
                    return 1

                def in_a_thread():
                    return 2

                def uncalled():
                    return 3

                def allowed():
                    return 4

                def f(a, b=1, c=None, d=2):
                    return a

                def spelled(x=1, *, label="x"):
                    return x

                def chunks(n, size=2):
                    size = size + 1
                    yield n
                    yield size

                class Base(abc.ABC):
                    @abc.abstractmethod
                    def stub(self, flag=False):
                        """Abstract: no body to run."""

                    def also_a_stub(self, limit=3):
                        raise NotImplementedError("subclasses say")
            ''',
            "examples/run.py": '''
                import threading
                from pkg.mod import called, chunks, f, in_a_thread, spelled

                def in_the_thread():
                    in_a_thread()
                    f(0, d=3)

                called()
                f(0, b=2)
                spelled(label="y")
                list(chunks(1))
                worker = threading.Thread(target=in_the_thread)
                worker.start()
                worker.join()
            ''',
            # The frozen benchmark spells a keyword no root passes.
            "benchmarks/e2e/workload.py": '''
                from pkg.mod import spelled

                def workload():
                    return spelled(x=2)
            ''',
        },
    )
    return run(tmp_path, [("demo", ("python", "examples/run.py"))])


def test_gate_names_exactly_the_uncalled_function(tmp_path):
    entered, _, failed = _run_demo(tmp_path)
    assert failed == []
    assert never_called(tmp_path, entered, {"pkg.mod:allowed"}) == ["pkg.mod:uncalled"]


def test_gate_names_exactly_the_unset_parameter(tmp_path):
    """``f(0, b=2)`` sets b on the main thread and ``f(0, d=3)`` sets d on
    another; the abstract stubs' defaults and the keyword the frozen
    benchmark spells are exempt."""
    _, given, failed = _run_demo(tmp_path)
    assert failed == []
    # A generator's resumed frame, whose `size` the body reassigned, is
    # no call that set it.
    assert never_set(tmp_path, given, ()) == ["pkg.mod:chunks(size)", "pkg.mod:f(c)"]
    assert never_set(tmp_path, given, {"pkg.mod:chunks(size)"}) == ["pkg.mod:f(c)"]
