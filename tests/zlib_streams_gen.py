#!/usr/bin/env python3
"""Regenerates the zlib-made streams embedded in inflate_interop_test.cc.

    python3 tests/zlib_streams_gen.py > /tmp/streams.inc

The plaintexts come from xorshift32 formulas that the test recomputes, so
each embedded stream is checked against an exact expected output. The
streams exercise what the library's own encoder never emits: zlib's code
shapes and code-length run encoding, codes longer than 10 bits, several
blocks per stream (including blocks that refer back into earlier ones),
mixed stored/fixed/dynamic blocks, and gzip headers with FNAME.
"""
import gzip
import io
import zlib

MASK = 0xFFFFFFFF
WORDS = [b"store ", b"cache ", b"client ", b"value ", b"key ", b"the ",
         b"a ", b"data ", b"remote ", b"enhanced ", b"gzip ", b"put ",
         b"get ", b"of ", b"to ", b"\n"]


def xorshift(state):
    state ^= (state << 13) & MASK
    state ^= state >> 17
    state ^= (state << 5) & MASK
    return state


def text(n):
    out = bytearray()
    x = 2463534242
    while len(out) < n:
        x = xorshift(x)
        out += WORDS[x >> 28]
    return bytes(out[:n])


def skewed(terms):
    # Byte 13k appears Fibonacci(k + 2) times, in xorshift-shuffled order.
    # With the end-of-block symbol's count of 1 these are Fibonacci counts,
    # which build the deepest possible Huffman tree, so the rare symbols
    # get codes longer than 10 bits.
    out, a, b = bytearray(), 1, 2
    for k in range(terms):
        out += bytes([k * 13 % 256]) * a
        a, b = b, a + b
    x = 88675123
    for i in range(len(out) - 1, 0, -1):
        x = xorshift(x)
        j = x % (i + 1)
        out[i], out[j] = out[j], out[i]
    return bytes(out)


def runs():
    return b"a" * 1000 + b"abc" * 500 + b"xy" * 300


def raw(level=9, strategy=zlib.Z_DEFAULT_STRATEGY):
    return zlib.compressobj(level, zlib.DEFLATED, -15, 9, strategy)


def dynamic_text():
    c = raw()
    return c.compress(text(3000)) + c.flush()


def dynamic_skewed():
    # Literals only, so matches cannot flatten the skew.
    c = raw(strategy=zlib.Z_HUFFMAN_ONLY)
    return c.compress(skewed(16)) + c.flush()


def fixed_runs():
    c = raw(strategy=zlib.Z_FIXED)
    return c.compress(runs()) + c.flush()


def multi_block():
    # One compressor, sync-flushed between parts: later blocks copy from
    # earlier ones, and each flush adds an empty stored block.
    c = raw()
    out = c.compress(text(2000)) + c.flush(zlib.Z_SYNC_FLUSH)
    out += c.compress(text(2000)) + c.flush(zlib.Z_SYNC_FLUSH)
    out += c.compress(runs()) + c.flush()
    return out


def mixed_blocks():
    # Full-flushed, byte-aligned, non-final parts from three compressors
    # concatenate into one valid stream: dynamic, then fixed, then stored.
    a = raw()
    b = raw(strategy=zlib.Z_FIXED)
    s = raw(level=0)
    out = a.compress(skewed(14)) + a.flush(zlib.Z_FULL_FLUSH)
    out += b.compress(runs()) + b.flush(zlib.Z_FULL_FLUSH)
    out += s.compress(text(700)) + s.flush()
    return out


def gzip_named():
    buf = io.BytesIO()
    with gzip.GzipFile(filename="values.bin", mode="wb", fileobj=buf,
                       mtime=0) as f:
        f.write(text(1500) + runs())
    return buf.getvalue()


def emit(name, data):
    print(f"// {len(data)} bytes")
    print(f"const uint8_t {name}[] = {{")
    for i in range(0, len(data), 16):
        row = ", ".join(f"0x{b:02x}" for b in data[i:i + 16])
        print(f"    {row},")
    print("};")
    print()


if __name__ == "__main__":
    print(f"// zlib {zlib.ZLIB_RUNTIME_VERSION}")
    emit("kDynamicText", dynamic_text())
    emit("kDynamicSkewed", dynamic_skewed())
    emit("kFixedRuns", fixed_runs())
    emit("kMultiBlock", multi_block())
    emit("kMixedBlocks", mixed_blocks())
    emit("kGzipNamed", gzip_named())
