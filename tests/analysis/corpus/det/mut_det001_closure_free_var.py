"""DET001 mutant: a scale the enclosing function reads from the
environment reaches the PS apply inside a closure."""

import os


def train(server, grad_queue):
    scale = float(os.environ["GRAD_SCALE"])

    def drain_one():
        uidx, grads = grad_queue.pop(0)
        server.apply_gradients(0, uidx, grads * scale)  # DET001

    while grad_queue:
        drain_one()
