"""DET001 clean twin: the closure applies the gradients it was queued."""


def train(server, grad_queue, scale=1.0):
    def drain_one():
        uidx, grads = grad_queue.pop(0)
        server.apply_gradients(0, uidx, grads * scale)

    while grad_queue:
        drain_one()
