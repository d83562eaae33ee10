"""REP006 mutant: a handler that swallows the exception."""


def predict(fn) -> None:
    try:
        fn()
    except ValueError:  # REP006
        pass
