"""Golden GIOP wire vectors, captured from the field-by-field header
codec this repository had before the ``struct``-based one (commit
``421761f``): every body-header type, both byte orders, with and
without service contexts, with and without parameter bytes behind the
header.  ``encode_message`` must reproduce each vector byte for byte
and ``decode_body`` must return the header it was made from.

The hex strings are whole messages: 12-byte GIOP header, body header,
and for the ``+params`` variants the 8-aligned parameter bytes.
"""

from repro.core import DepositDescriptor
from repro.giop import (SVC_CTX_TRACE, CancelRequestHeader,
                        LocateReplyHeader, LocateRequestHeader,
                        LocateStatus, ReplyHeader, ReplyStatus,
                        RequestHeader, ServiceContext,
                        encode_trace_context)

PARAMS = b"PARAMS"


def _contexts(kind):
    if kind == "plain":
        return []
    if kind == "deposit":
        return [ServiceContext.for_deposit(
            DepositDescriptor(deposit_id=7, size=65536))]
    return [ServiceContext(0x4242, b"opaque-blob"),
            ServiceContext(SVC_CTX_TRACE, encode_trace_context(
                bytes(range(16)), bytes(range(16, 24)), True))]


def make_header(name):
    """A fresh header object for the vector family ``name`` (fresh,
    because sending appends to a header's service-context list)."""
    family, kind = name.split("/")
    if family == "Request" and kind == "oneway+principal":
        return RequestHeader(request_id=9, object_key=b"k",
                             operation="post", response_expected=False,
                             principal=b"me!")
    if family == "Request":
        return RequestHeader(
            request_id=0x01020304, object_key=b"POA1/0000002a",
            operation="send_zc", response_expected=True,
            service_contexts=_contexts(kind))
    if family == "Reply":
        return ReplyHeader(
            request_id=0x01020304,
            reply_status=ReplyStatus.USER_EXCEPTION,
            service_contexts=_contexts(kind))
    if family == "LocateRequest":
        return LocateRequestHeader(request_id=0x0A0B0C0D,
                                   object_key=b"POA1/00000001")
    if family == "LocateReply":
        return LocateReplyHeader(request_id=0x0A0B0C0D,
                                 locate_status=LocateStatus.OBJECT_HERE)
    assert family == "CancelRequest", name
    return CancelRequestHeader(request_id=0xFFFFFFFF)


#: "<family>/<contexts>/<le|be>[+params]" -> message hex
GOLDEN = {
    "Request/plain/le":
        "47494f5001010100300000000000000004030201010000000d000000504f"
        "41312f30303030303032610000000800000073656e645f7a630000000000",
    "Request/plain/le+params":
        "47494f5001010100360000000000000004030201010000000d000000504f"
        "41312f30303030303032610000000800000073656e645f7a630000000000"
        "504152414d53",
    "Request/plain/be":
        "47494f5001010000000000300000000001020304010000000000000d504f"
        "41312f30303030303032610000000000000873656e645f7a630000000000",
    "Request/plain/be+params":
        "47494f5001010000000000360000000001020304010000000000000d504f"
        "41312f30303030303032610000000000000873656e645f7a630000000000"
        "504152414d53",
    "Reply/plain/le":
        "47494f50010101010c000000000000000403020101000000",
    "Reply/plain/le+params":
        "47494f500101010116000000000000000403020101000000000000005041"
        "52414d53",
    "Reply/plain/be":
        "47494f50010100010000000c000000000102030400000001",
    "Reply/plain/be+params":
        "47494f500101000100000016000000000102030400000001000000005041"
        "52414d53",
    "Request/deposit/le":
        "47494f50010101004c000000010000000100435a140000000100435a0000"
        "010000000000070000000c00000004030201010000000d000000504f4131"
        "2f30303030303032610000000800000073656e645f7a630000000000",
    "Request/deposit/le+params":
        "47494f500101010056000000010000000100435a140000000100435a0000"
        "010000000000070000000c00000004030201010000000d000000504f4131"
        "2f30303030303032610000000800000073656e645f7a6300000000000000"
        "0000504152414d53",
    "Request/deposit/be":
        "47494f50010100000000004c000000015a430001000000140100435a0000"
        "010000000000070000000c00000001020304010000000000000d504f4131"
        "2f30303030303032610000000000000873656e645f7a630000000000",
    "Request/deposit/be+params":
        "47494f500101000000000056000000015a430001000000140100435a0000"
        "010000000000070000000c00000001020304010000000000000d504f4131"
        "2f30303030303032610000000000000873656e645f7a6300000000000000"
        "0000504152414d53",
    "Reply/deposit/le":
        "47494f500101010128000000010000000100435a140000000100435a0000"
        "010000000000070000000c0000000403020101000000",
    "Reply/deposit/le+params":
        "47494f50010101012e000000010000000100435a140000000100435a0000"
        "010000000000070000000c0000000403020101000000504152414d53",
    "Reply/deposit/be":
        "47494f500101000100000028000000015a430001000000140100435a0000"
        "010000000000070000000c0000000102030400000001",
    "Reply/deposit/be+params":
        "47494f50010100010000002e000000015a430001000000140100435a0000"
        "010000000000070000000c0000000102030400000001504152414d53",
    "Request/foreign+trace/le":
        "47494f50010101006800000002000000424200000b0000006f7061717565"
        "2d626c6f62000200435a1a00000000000102030405060708090a0b0c0d0e"
        "0f101112131415161701000004030201010000000d000000504f41312f30"
        "303030303032610000000800000073656e645f7a630000000000",
    "Request/foreign+trace/le+params":
        "47494f50010101006e00000002000000424200000b0000006f7061717565"
        "2d626c6f62000200435a1a00000000000102030405060708090a0b0c0d0e"
        "0f101112131415161701000004030201010000000d000000504f41312f30"
        "303030303032610000000800000073656e645f7a63000000000050415241"
        "4d53",
    "Request/foreign+trace/be":
        "47494f50010100000000006800000002000042420000000b6f7061717565"
        "2d626c6f62005a4300020000001a00000102030405060708090a0b0c0d0e"
        "0f101112131415161701000001020304010000000000000d504f41312f30"
        "303030303032610000000000000873656e645f7a630000000000",
    "Request/foreign+trace/be+params":
        "47494f50010100000000006e00000002000042420000000b6f7061717565"
        "2d626c6f62005a4300020000001a00000102030405060708090a0b0c0d0e"
        "0f101112131415161701000001020304010000000000000d504f41312f30"
        "303030303032610000000000000873656e645f7a63000000000050415241"
        "4d53",
    "Reply/foreign+trace/le":
        "47494f50010101014400000002000000424200000b0000006f7061717565"
        "2d626c6f62000200435a1a00000000000102030405060708090a0b0c0d0e"
        "0f10111213141516170100000403020101000000",
    "Reply/foreign+trace/le+params":
        "47494f50010101014e00000002000000424200000b0000006f7061717565"
        "2d626c6f62000200435a1a00000000000102030405060708090a0b0c0d0e"
        "0f1011121314151617010000040302010100000000000000504152414d53",
    "Reply/foreign+trace/be":
        "47494f50010100010000004400000002000042420000000b6f7061717565"
        "2d626c6f62005a4300020000001a00000102030405060708090a0b0c0d0e"
        "0f10111213141516170100000102030400000001",
    "Reply/foreign+trace/be+params":
        "47494f50010100010000004e00000002000042420000000b6f7061717565"
        "2d626c6f62005a4300020000001a00000102030405060708090a0b0c0d0e"
        "0f1011121314151617010000010203040000000100000000504152414d53",
    "Request/oneway+principal/le":
        "47494f500101010027000000000000000900000000000000010000006b00"
        "000005000000706f737400000000030000006d6521",
    "Request/oneway+principal/le+params":
        "47494f50010101002e000000000000000900000000000000010000006b00"
        "000005000000706f737400000000030000006d652100504152414d53",
    "Request/oneway+principal/be":
        "47494f500101000000000027000000000000000900000000000000016b00"
        "000000000005706f737400000000000000036d6521",
    "Request/oneway+principal/be+params":
        "47494f50010100000000002e000000000000000900000000000000016b00"
        "000000000005706f737400000000000000036d652100504152414d53",
    "LocateRequest/plain/le":
        "47494f5001010103150000000d0c0b0a0d000000504f41312f3030303030"
        "303031",
    "LocateRequest/plain/le+params":
        "47494f50010101031e0000000d0c0b0a0d000000504f41312f3030303030"
        "303031000000504152414d53",
    "LocateRequest/plain/be":
        "47494f5001010003000000150a0b0c0d0000000d504f41312f3030303030"
        "303031",
    "LocateRequest/plain/be+params":
        "47494f50010100030000001e0a0b0c0d0000000d504f41312f3030303030"
        "303031000000504152414d53",
    "LocateReply/plain/le":
        "47494f5001010104080000000d0c0b0a01000000",
    "LocateReply/plain/le+params":
        "47494f50010101040e0000000d0c0b0a01000000504152414d53",
    "LocateReply/plain/be":
        "47494f5001010004000000080a0b0c0d00000001",
    "LocateReply/plain/be+params":
        "47494f50010100040000000e0a0b0c0d00000001504152414d53",
    "CancelRequest/plain/le":
        "47494f500101010204000000ffffffff",
    "CancelRequest/plain/le+params":
        "47494f50010101020e000000ffffffff00000000504152414d53",
    "CancelRequest/plain/be":
        "47494f500101000200000004ffffffff",
    "CancelRequest/plain/be+params":
        "47494f50010100020000000effffffff00000000504152414d53",
}


def vectors():
    """(vector id, header family name, little_endian, params, bytes)."""
    for key, hexed in GOLDEN.items():
        name, _, variant = key.rpartition("/")
        order, _, tail = variant.partition("+")
        yield (key, name, order == "le", PARAMS if tail else b"",
               bytes.fromhex(hexed))


# -- encapsulations ------------------------------------------------------------
# Written by hand from the CORBA spec (CDR encapsulations, IIOP 1.1
# profile bodies, stringified IORs), not captured from any codec: an
# encapsulation's alignment counts from its byte-order octet, and an
# IIOP 1.1 profile body ends with its tagged components.  Keys are
# "le" / "be"; values are hex.

#: IIOPProfile(host="h", port=0x1234, object_key=b"KEY"): flag, 1.1,
#: pad to 4; host length at 4, "h\0" at 8; port at 10; key length at 12,
#: "KEY" at 16, pad; the (empty) component count at 20
PROFILE = {
    "le": "01010100" "02000000" "6800" "3412" "03000000" "4b455900"
          "00000000",
    "be": "00010100" "00000002" "6800" "1234" "00000003" "4b455900"
          "00000000",
}

#: the same profile carrying one component (tag 0, data 01 02 03),
#: which a decode keeps and a re-encode writes back unchanged
PROFILE_WITH_COMPONENT = {
    "le": "01010100" "02000000" "6800" "3412" "03000000" "4b455900"
          "01000000" "00000000" "03000000" "010203",
    "be": "00010100" "00000002" "6800" "1234" "00000003" "4b455900"
          "00000001" "00000000" "00000003" "010203",
}

#: an IOR of type "IDL:X:1.0" with <PROFILE> (in the same byte order),
#: stringified: flag, pad to 4;
#: type id length at 4, "IDL:X:1.0\0" at 8, pad; profile count at 20;
#: tag 0 (TAG_INTERNET_IOP) at 24; profile length (24) at 28; the
#: profile encapsulation from 32
IOR_STRING = {
    "le": "IOR:" "01000000" "0a000000" "49444c3a583a312e3000" "0000"
          "01000000" "00000000" "18000000" + PROFILE["le"],
    "be": "IOR:" "00000000" "0000000a" "49444c3a583a312e3000" "0000"
          "00000001" "00000000" "00000018" + PROFILE["be"],
}

#: an ``any`` holding struct P { long x; } ("IDL:P:1.0") with x =
#: 0x01020304, at stream offset 0: tk_struct (15); the encapsulation's
#: length (44); from 8 the encapsulation — flag, pad to 4, repo id
#: length at +4, "IDL:P:1.0\0" at +8, pad, name length at +20, "P\0"
#: at +24, pad, member count at +28, member name length at +32, "x\0"
#: at +36, pad, tk_long (3) at +40 — then the value at 52
ANY_STRUCT = {
    "le": "0f000000" "2c000000"
          "01000000" "0a000000" "49444c3a503a312e3000" "0000"
          "02000000" "5000" "0000" "01000000" "02000000" "7800" "0000"
          "03000000"
          "04030201",
    "be": "0000000f" "0000002c"
          "00000000" "0000000a" "49444c3a503a312e3000" "0000"
          "00000002" "5000" "0000" "00000001" "00000002" "7800" "0000"
          "00000003"
          "01020304",
}
