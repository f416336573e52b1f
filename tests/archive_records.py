"""Where a record lies in an archive's data file, taken from the
archive's own index, so a test that damages a record does not search
the file's bytes for a record layout."""

from concat_augment.archive import FeatureArchive, _head


def record_span(root, utt_id: str) -> tuple[int, int, int]:
    """(start, payload start, end) of ``utt_id``'s record in the archive
    at ``root``, as byte offsets in its data file."""
    with FeatureArchive(root) as archive:
        offset, t, fdim = archive._index[utt_id]
    payload = offset + len(_head(utt_id.encode("utf-8"), t, fdim))
    return offset, payload, payload + 4 * t * fdim + 4
