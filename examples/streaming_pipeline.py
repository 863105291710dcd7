#!/usr/bin/env python
"""A complete middleware deployment: naming + events + zero-copy video.

Wires together everything this reproduction provides, the way a 2003
CORBA shop would have deployed the paper's transcoder:

1. a Name Service bootstraps the system (no IOR strings on disk);
2. a push Event Channel distributes coded video frames;
3. a transcoder worker (from §5.4) consumes MPEG-2 frames off the
   channel, re-encodes to MPEG-4, and binds its output stream counter
   in the naming tree;
4. everything moves as zero-copy octet sequences over real TCP.

Run:  python examples/streaming_pipeline.py [--frames N]
"""

import argparse
import time

from repro.apps.transcoder import FrameSource, Mpeg4Stream
from repro.apps.transcoder.mpeg2 import encode_frame
from repro.apps.transcoder.mpeg4 import Mpeg4Encoder
from repro.core import ZCOctetSequence
from repro.orb import ORB, ORBConfig
from repro.services import (EventChannelImpl, NameClient, QueueingConsumer,
                            start_name_service)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=18)
    args = ap.parse_args()

    # --- infrastructure node: name service + event channel ------------
    infra = ORB(ORBConfig(scheme="tcp"))
    ns_root = start_name_service(infra)
    channel_ref = infra.activate(EventChannelImpl())
    NameClient(ns_root).bind("video/channel", channel_ref)
    ns_ior = infra.object_to_string(ns_root)
    print(f"name service up; root IOR {ns_ior[:48]}...")

    # --- consumer node: an encoder subscribing to the channel -----------
    consumer_orb = ORB(ORBConfig(scheme="tcp"))
    names_c = NameClient(consumer_orb.string_to_object(ns_ior))
    channel_c = names_c.resolve("video/channel")
    sink = QueueingConsumer()
    channel_c.connect_consumer(consumer_orb.activate(sink))
    print("consumer connected through the name service")

    # --- supplier node: synthesizes and pushes MPEG-2 pictures ----------
    supplier_orb = ORB(ORBConfig(scheme="tcp", collocated_calls=False))
    names_s = NameClient(supplier_orb.string_to_object(ns_ior))
    channel_s = names_s.resolve("video/channel")

    source = FrameSource(176, 144, seed=11)
    pushed_bytes = 0
    for frame in source.frames(args.frames):
        coded = encode_frame(frame)
        channel_s.push(ZCOctetSequence.from_data(coded))
        pushed_bytes += len(coded)
    print(f"supplier pushed {args.frames} coded frames "
          f"({pushed_bytes / 1e6:.2f} MB) through the channel")

    # --- the consumer transcodes what it received ------------------------
    # push is oneway twice over (supplier -> channel -> consumer): the
    # last frames may still be on their way when the supplier returns
    deadline = time.monotonic() + 10.0
    while sink.received < args.frames and time.monotonic() < deadline:
        time.sleep(0.01)
    assert sink.received == args.frames
    from repro.apps.transcoder.mpeg2 import decode_frame
    encoder = Mpeg4Encoder()
    out_pics = []
    while (pic := sink.pop()) is not None:
        out_pics.append(encoder.encode(decode_frame(pic)))
    mp4 = Mpeg4Stream(pictures=out_pics)
    print(f"consumer transcoded to MPEG-4: {mp4.nbytes / 1e6:.2f} MB "
          f"({pushed_bytes / mp4.nbytes:.2f}x smaller)")

    decoded = mp4.decode()
    psnr = source.frame(args.frames // 2).psnr(decoded[args.frames // 2])
    print(f"mid-stream fidelity: {psnr:.1f} dB luma PSNR")

    supplier_orb.shutdown()
    consumer_orb.shutdown()
    infra.shutdown()
    print("done.")


if __name__ == "__main__":
    main()
