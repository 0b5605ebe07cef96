package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Framing: every frame is a 4-byte big-endian body length followed by the
// body — a 1-byte frame type and the type's payload. The length counts
// the type byte, so it is always >= 1; bodies above MaxFrame are a
// protocol violation on both ends (the reader refuses before allocating,
// the writer refuses before sending).

const (
	// MaxFrame is the maximum frame body size (type byte + payload).
	// 64 MiB bounds a Push/Buffer frame to ~1.5M messages, far above any
	// round this module produces, while keeping a malicious length field
	// from committing the reader to an absurd allocation.
	MaxFrame = 1 << 26

	// readChunk bounds how much readFrame allocates ahead of the bytes
	// actually received, so a truncated stream with an inflated length
	// field cannot balloon memory.
	readChunk = 1 << 16
)

// FrameType tags a frame body.
type FrameType uint8

// The protocol's frame types; see doc.go for the session state machine.
// Types 12 and 13 (the Ping/Pong heartbeat of version 2) are retired and
// decode as unknown types.
const (
	FrameHello     FrameType = 1  // client → server: handshake
	FrameWelcome   FrameType = 2  // server → client: handshake accepted
	FrameError     FrameType = 3  // server → client: typed rejection; session over
	FrameRunBegin  FrameType = 4  // client → server: reset engine for a run (no reply)
	FramePush      FrameType = 5  // client → server: one round's sends
	FramePushAck   FrameType = 6  // server → client: active edge count
	FrameDeliver   FrameType = 7  // client → server: deliver one round
	FrameBuffer    FrameType = 8  // server → client: delivered messages
	FrameRunEnd    FrameType = 9  // client → server: finish the run
	FrameRunResult FrameType = 10 // server → client: counters + first loss
	FrameGoodbye   FrameType = 11 // client → server: clean close
)

// Typed framing errors. Decoding failures never panic and never allocate
// proportionally to a corrupt length or count field; they return one of
// these (possibly wrapped with context).
var (
	// ErrFrameTooBig reports a frame body above MaxFrame (either side).
	ErrFrameTooBig = errors.New("wire: frame exceeds size limit")
	// ErrBadFrame reports a malformed frame: zero-length body, a payload
	// that fails to decode, trailing bytes, or an unexpected frame type.
	ErrBadFrame = errors.New("wire: malformed frame")
	// ErrTruncated reports a stream that ended inside a frame.
	ErrTruncated = errors.New("wire: truncated frame")
)

// frameWriter is what writeFrame writes to: the five header bytes go out
// through WriteByte, because a header array handed to io.Writer.Write
// escapes — one heap allocation per frame.
type frameWriter interface {
	io.Writer
	io.ByteWriter
}

// writeFrame emits one frame. The caller flushes any buffering.
func writeFrame(w frameWriter, t FrameType, payload []byte) error {
	body := 1 + len(payload)
	if body > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooBig, body)
	}
	for _, b := range [5]byte{byte(body >> 24), byte(body >> 16), byte(body >> 8), byte(body), byte(t)} {
		if err := w.WriteByte(b); err != nil {
			return err
		}
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one frame, reusing buf's backing array when it is big
// enough; the returned payload aliases the (possibly grown) buffer, which
// the caller should retain for the next call. The header is read into the
// front of the same buffer (a local header array would escape through
// io.Reader and cost an allocation per frame) and overwritten by the
// payload, which is read in readChunk steps so a truncated stream claiming
// a huge frame allocates no more than what actually arrived (plus one
// chunk).
func readFrame(r io.Reader, buf []byte) (FrameType, []byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, buf[:0], fmt.Errorf("%w: short header", ErrTruncated)
		}
		return 0, buf[:0], err // clean EOF between frames stays io.EOF
	}
	body := binary.BigEndian.Uint32(buf[:4])
	if body == 0 {
		return 0, buf[:0], fmt.Errorf("%w: zero-length body", ErrBadFrame)
	}
	if body > MaxFrame {
		return 0, buf[:0], fmt.Errorf("%w: %d bytes", ErrFrameTooBig, body)
	}
	if _, err := io.ReadFull(r, buf[4:5]); err != nil {
		return 0, buf[:0], fmt.Errorf("%w: missing frame type", ErrTruncated)
	}
	t := FrameType(buf[4])
	plen := int(body) - 1
	buf = buf[:0]
	for len(buf) < plen {
		k := plen - len(buf)
		if k > readChunk {
			k = readChunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			// Wrap the cause too: the client classifies round-deadline
			// expiries (net.Error timeouts) behind ErrTruncated.
			return 0, buf[:0], fmt.Errorf("%w: body ended at %d of %d bytes: %w", ErrTruncated, start, plen, err)
		}
	}
	return t, buf, nil
}

// ReadFrame is the exported form of the frame reader, for tests and the
// fuzz target: it parses one frame from r and fully decodes the payload
// of every known frame type, returning a typed error (never panicking)
// on truncated, oversized or corrupt input. Unknown frame types fail
// with ErrBadFrame.
func ReadFrame(r io.Reader, buf []byte) (FrameType, any, error) {
	t, payload, err := readFrame(r, buf)
	if err != nil {
		return t, nil, err
	}
	var v any
	switch t {
	case FrameHello:
		v, err = decodeHello(payload)
	case FrameWelcome:
		v, err = decodeWelcome(payload)
	case FrameError:
		v, err = decodeError(payload)
	case FrameRunBegin, FrameRunEnd, FrameGoodbye:
		if len(payload) != 0 {
			err = fmt.Errorf("%w: unexpected payload on frame type %d", ErrBadFrame, t)
		}
	case FramePush:
		var round int
		var msgs []congestMessage
		round, msgs, err = decodePush(payload, nil)
		v = pushFrame{Round: round, Msgs: msgs}
	case FramePushAck:
		v, err = decodePushAck(payload)
	case FrameDeliver:
		v, err = decodeDeliver(payload)
	case FrameBuffer:
		var msgs []congestMessage
		msgs, err = decodeBuffer(payload, nil)
		v = msgs
	case FrameRunResult:
		v, err = decodeRunResult(payload)
	default:
		err = fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, t)
	}
	if err != nil {
		return t, nil, err
	}
	return t, v, nil
}

// pushFrame is ReadFrame's decoded form of a Push frame.
type pushFrame struct {
	Round int
	Msgs  []congestMessage
}
