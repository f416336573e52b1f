"""Where a record lies in an archive's data file, taken from the
archive's own index, so a test that damages a record does not search
the file's bytes for a record layout."""

from concat_augment.archive import FeatureArchive


def record_span(root, utt_id: str) -> tuple[int, int, int]:
    """(start, payload start, end) of ``utt_id``'s record in the archive
    at ``root``, as byte offsets in its data file."""
    with FeatureArchive(root) as archive:
        slot = archive.slot(utt_id)
    payload = slot.offset + len(slot.head)
    return slot.offset, payload, payload + slot.nbytes + 4
