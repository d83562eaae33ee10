"""DET001 mutant: an environment scale reaches the PS apply in a closure."""

import os


def train(server, grad_queue):
    def drain_one():
        uidx, grads = grad_queue.pop(0)
        scale = float(os.environ.get("GRAD_SCALE", "1"))
        server.apply_gradients(0, uidx, grads * scale)  # DET001

    while grad_queue:
        drain_one()
