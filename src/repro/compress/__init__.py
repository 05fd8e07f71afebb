"""Compression and indexing of PLT structures (paper §1/§6 claims)."""

from repro import _lazy

__getattr__, __dir__ = _lazy.attach(
    __name__,
    {
        "LengthIndex": "index",
        "SumIndex": "index",
        "PLTStore": "store",
        "serialize_plt": "plt_codec",
        "deserialize_plt": "plt_codec",
        "encoded_size_report": "plt_codec",
        "encode_label": "plt_codec",
        "decode_label": "plt_codec",
        "encode_uvarint": "varint",
        "decode_uvarint": "varint",
        "encode_uvarints": "varint",
        "decode_uvarints": "varint",
        "uvarint_len": "varint",
    },
)

__all__ = [
    "LengthIndex",
    "SumIndex",
    "PLTStore",
    "serialize_plt",
    "deserialize_plt",
    "encoded_size_report",
    "encode_label",
    "decode_label",
    "encode_uvarint",
    "decode_uvarint",
    "encode_uvarints",
    "decode_uvarints",
    "uvarint_len",
]
