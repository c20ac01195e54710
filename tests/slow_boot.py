"""Robots bodies that hold a host-shard actor's boot back, so a test can
run a crawl while the pool's driver mirror answers its seen rounds,
without a hook in the package."""


def slow_boot_robots(robots: dict[str, str] | None, delay: float) -> dict[str, str]:
    """``robots`` (``{}`` for None) plus one unused host, each body a
    ``str`` whose unpickling sleeps ``delay`` seconds inside an actor and
    nowhere else: the ``HostShard`` constructor arguments hold such a body,
    so the actor replies ``delay`` seconds late, while the driver's robots
    gate and the fetch tasks read the same bodies at once.  The reducer is
    a local function, so Ray pickles it by value (workers cannot import
    the tests)."""

    def _unpickle(body: str, delay: float) -> str:
        import time

        import ray

        if ray.get_runtime_context().get_actor_id() is not None:
            time.sleep(delay)
        return body

    class _SlowBody(str):
        def __reduce__(self):
            return _unpickle, (str(self), delay)

    bodies = {"slow-boot.invalid": "User-agent: *\nDisallow:\n", **(robots or {})}
    return {host: _SlowBody(body) for host, body in bodies.items()}
