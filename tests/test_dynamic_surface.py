"""The dynamic surface gate (``tests/dynamic_surface.py``) against itself:
one root over a tiny tree under the call hook."""

from tests.dynamic_surface import never_called, run
from tests.test_surface import _write


def test_gate_names_exactly_the_uncalled_function(tmp_path):
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

                class Base(abc.ABC):
                    @abc.abstractmethod
                    def stub(self):
                        """Abstract: no body to run."""

                    def also_a_stub(self):
                        raise NotImplementedError("subclasses say")
            ''',
            "examples/run.py": '''
                import threading
                from pkg.mod import called, in_a_thread

                called()
                worker = threading.Thread(target=in_a_thread)
                worker.start()
                worker.join()
            ''',
        },
    )
    entered, failed = run(tmp_path, [("demo", ("python", "examples/run.py"))])
    assert failed == []
    assert never_called(tmp_path, entered, {"pkg.mod:allowed"}) == ["pkg.mod:uncalled"]
