import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def put_media_lookup(ray_session):
    """``put(media=None, corrupt=None, missing=())`` -> an ObjectRef of the
    broadcast media lookup in the one form production builds it:
    ``load_media_lookup``'s payload (``_MediaTableLookup.precompute``) over
    ``media``'s (media_ref, bytes) rows. ``corrupt`` maps refs to the bytes
    that replace theirs, ``missing`` drops refs from the table, and
    ``media=None`` is an empty table."""
    import pyarrow as pa

    from my_ocr_ray.schema import MEDIA_SCHEMA
    from my_ocr_ray.stages.ocrstage import _MediaTableLookup

    schema = pa.schema([MEDIA_SCHEMA.field("media_ref"), MEDIA_SCHEMA.field("bytes")])

    def put(media=None, corrupt=None, missing=()):
        rows = {} if media is None else dict(
            zip(media["media_ref"].to_pylist(), media["bytes"].to_pylist())
        )
        rows.update(corrupt or {})
        for ref in missing:
            del rows[ref]
        table = pa.table(
            {"media_ref": list(rows), "bytes": list(rows.values())}, schema=schema
        )
        return ray_session.put(_MediaTableLookup.precompute(table))

    return put
