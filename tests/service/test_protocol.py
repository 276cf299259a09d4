"""Wire-protocol unit tests: framing, decoding, and the line channel."""

import socket
import threading

import pytest

from repro.service import protocol
from repro.service.protocol import (
    LineChannel,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
    encode,
)


class TestFraming:
    def test_encode_is_one_newline_terminated_line(self):
        frame = encode({"op": "ping", "id": 1})
        assert frame.endswith(b"\n")
        assert frame.count(b"\n") == 1

    def test_request_roundtrip(self):
        request = Request(op="checkout", id=7, params={"dataset": "d", "versions": [1, 2]})
        decoded = decode_request(encode(request.to_dict()).strip())
        assert decoded.op == "checkout"
        assert decoded.id == 7
        assert decoded.get("versions") == [1, 2]

    def test_response_roundtrip(self):
        response = Response(id=3, status=protocol.OK, data={"rows": 5})
        decoded = decode_response(encode(response.to_dict()).strip())
        assert decoded.ok
        assert decoded.data == {"rows": 5}

    def test_error_response_carries_type(self):
        response = Response(
            id=1, status=protocol.ERROR, error="boom", error_type="CVDError"
        )
        decoded = decode_response(encode(response.to_dict()).strip())
        assert not decoded.ok
        assert decoded.error == "boom"
        assert decoded.error_type == "CVDError"

    @pytest.mark.parametrize(
        "garbage",
        [b"not json", b"[1,2,3]", b'{"id": 1}', b'{"op": ""}', b'{"op": 5}'],
    )
    def test_garbage_requests_rejected(self, garbage):
        with pytest.raises(ProtocolError):
            decode_request(garbage)

    def test_response_without_status_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response(b'{"id": 1}')

    def test_non_integer_id_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(b'{"op": "ping", "id": "x"}')


class TestLineChannel:
    def _pair(self):
        a, b = socket.socketpair()
        return LineChannel(a), LineChannel(b)

    def test_send_recv(self):
        left, right = self._pair()
        left.send({"op": "ping", "id": 1})
        line = right.recv_line()
        assert decode_request(line).op == "ping"
        left.close()
        right.close()

    def test_partial_frames_reassemble(self):
        left, right = self._pair()
        frame = encode({"op": "ping", "id": 1})
        left.sock.sendall(frame[:5])
        left.sock.sendall(frame[5:])
        assert decode_request(right.recv_line()).op == "ping"
        left.close()
        right.close()

    def test_multi_chunk_frame_is_searched_once(self):
        """Reassembly is linear in the frame: each recv resumes the
        newline search where the last one stopped (it used to rescan
        from offset 0, ~N/64KiB times over)."""

        class CountingBuffer(bytearray):
            scanned = 0

            def find(self, sub, start=0):
                self.scanned += len(self) - start
                return super().find(sub, start)

        left, right = self._pair()
        right._buffer = CountingBuffer()
        frame = encode({"op": "ping", "id": 1, "pad": "x" * 1_000_000})
        tail = encode({"op": "ls", "id": 2})
        sender = threading.Thread(target=left.sock.sendall, args=(frame + tail,))
        sender.start()
        request = decode_request(right.recv_line())
        sender.join(timeout=10)
        assert not sender.is_alive()
        assert request.op == "ping" and len(request.get("pad")) == 1_000_000
        assert right._buffer.scanned <= 2 * len(frame)
        assert decode_request(right.recv_line()).op == "ls"
        left.close()
        right.close()

    def test_multiple_frames_per_segment(self):
        left, right = self._pair()
        left.sock.sendall(
            encode({"op": "ping", "id": 1}) + encode({"op": "ls", "id": 2})
        )
        assert decode_request(right.recv_line()).op == "ping"
        assert decode_request(right.recv_line()).op == "ls"
        left.close()
        right.close()

    def test_eof_returns_none_and_drops_torn_tail(self):
        left, right = self._pair()
        left.sock.sendall(b'{"op": "pi')  # torn, no newline
        left.close()
        assert right.recv_line() is None
        right.close()

    def test_oversize_line_raises(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 64)
        left, right = self._pair()
        left.sock.sendall(b"x" * 200)
        with pytest.raises(ProtocolError):
            right.recv_line()
        left.close()
        right.close()
