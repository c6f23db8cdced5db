"""ulm — the Universal Logger Message format (IETF draft, paper §4.2).

ASCII wire form (:mod:`repro.ulm.parse`), the binary option for
high-throughput event data (:mod:`repro.ulm.binfmt`, §3.0), the
gateway's ULM↔XML filter (:mod:`repro.ulm.xmlfmt`, §7.0), and the wire
frame that carries any of the three between hosts
(:mod:`repro.ulm.frame`).
"""

from .binfmt import (BinaryFormatError, decode, decode_many, encode,
                     encode_many)
from .fields import (DATE, EPOCH, HOST, LEVELS, LVL, NL_EVNT, PROG,
                     REQUIRED_FIELDS, FieldError, format_date,
                     is_valid_field_name, parse_date, quantize_date)
from .frame import Frame
from .message import ULMMessage
from .parse import (ParseError, iter_parse, parse,
                    parse_stream, serialize, serialize_stream)
from .xmlfmt import (XMLFormatError, from_xml, stream_from_xml,
                     stream_to_xml, to_xml)

__all__ = [
    "BinaryFormatError", "DATE", "EPOCH", "FieldError", "Frame", "HOST",
    "LEVELS", "LVL", "NL_EVNT", "PROG", "ParseError", "REQUIRED_FIELDS",
    "ULMMessage", "XMLFormatError", "decode", "decode_many", "encode",
    "encode_many", "format_date", "from_xml", "is_valid_field_name",
    "iter_parse", "parse", "parse_date", "parse_stream",
    "quantize_date", "serialize", "serialize_stream", "stream_from_xml",
    "stream_to_xml", "to_xml",
]
