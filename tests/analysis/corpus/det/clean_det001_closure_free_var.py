"""DET001 clean twin: the closure's scale comes from the run's config."""


def train(server, grad_queue, config):
    scale = float(config.grad_scale)

    def drain_one():
        uidx, grads = grad_queue.pop(0)
        server.apply_gradients(0, uidx, grads * scale)

    while grad_queue:
        drain_one()
