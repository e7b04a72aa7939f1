// Package wire defines the serving layer's wire formats, shared by
// internal/server (decode side) and the public client package (encode
// side) so the two can never drift apart:
//
//   - NDJSON samples: one JSON object per line, numeric fields t, ax,
//     ay, az, gx, gy, gz, yaw (gyro fields optional, like the legacy
//     CSV layout). Human-readable, greppable, curl-able.
//   - Binary frames: a 4-byte "PTB1" stream magic followed by fixed
//     64-byte frames of 8 little-endian float64s in the same field
//     order. The compact format for high-rate uploads.
//   - Events: the deterministic JSON encoding of one streaming
//     classification event, used verbatim as the SSE data payload. The
//     encoding is byte-stable for a given event, which is what lets the
//     end-to-end tests demand byte-identical event sequences between
//     the HTTP path and a directly-fed tracker.
//   - Batch: the request/response JSON bodies of POST /v1/batch.
//   - Refusals: the JSON error envelope every non-2xx response carries
//     (ErrorBody, written by WriteError), the Retry-After wait it
//     promises (RetryWait), and the one retry loop (Backoff) that the
//     client and the cluster's remote store both run.
//
// One Decoder reads both sample formats through one read loop,
// NextBlock, and the JSON the server decodes (NDJSON sample lines and
// /v1/batch bodies) follows one grammar, so both refuse the same
// things. Decoding is alloc-free at steady state (enforced by
// TestDecodeAllocFree and the bench-guard ceilings): it scans a
// reusable buffer and parses numbers without constructing intermediate
// strings. Floats round-trip exactly — encoders use strconv's shortest
// form and decoders parse with strconv semantics — so a trace survives
// the wire bit-identical.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"ptrack/internal/gaitid"
	"ptrack/internal/stream"
	"ptrack/internal/trace"
)

// Content types of the serving API. The sample decoders pick a format
// from these; SSE responses use the standard text/event-stream.
const (
	ContentTypeNDJSON = "application/x-ndjson"
	ContentTypeBinary = "application/x-ptrack-frames"
	ContentTypeJSON   = "application/json"
	ContentTypeSSE    = "text/event-stream"
)

// Binary framing constants.
const (
	// BinaryMagic opens every binary sample stream.
	BinaryMagic = "PTB1"
	// BinaryFrameSize is the fixed size of one encoded sample: 8
	// little-endian float64s (t, ax, ay, az, gx, gy, gz, yaw).
	BinaryFrameSize = 64
)

// MaxLineLen bounds one NDJSON line. A sample line is ~200 bytes at
// full float precision; anything near this limit is hostile or corrupt
// input, not data.
const MaxLineLen = 4096

// Decode errors. Decoders return them wrapped with position context;
// test with errors.Is.
var (
	// ErrFormat reports malformed input: bad JSON framing, an unknown
	// or duplicate key, a null value, a truncated binary frame, or a
	// missing stream magic.
	ErrFormat = errors.New("wire: malformed sample stream")
	// ErrLineTooLong reports an NDJSON line exceeding MaxLineLen.
	ErrLineTooLong = errors.New("wire: line exceeds maximum length")
)

// AppendSample appends the NDJSON encoding of s (one object plus
// newline) to dst and returns the extended slice. Floats use the
// shortest exact representation, so the Decoder returns s bit-identical.
func AppendSample(dst []byte, s trace.Sample) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendFloat(dst, s.T, 'g', -1, 64)
	dst = append(dst, `,"ax":`...)
	dst = strconv.AppendFloat(dst, s.Accel.X, 'g', -1, 64)
	dst = append(dst, `,"ay":`...)
	dst = strconv.AppendFloat(dst, s.Accel.Y, 'g', -1, 64)
	dst = append(dst, `,"az":`...)
	dst = strconv.AppendFloat(dst, s.Accel.Z, 'g', -1, 64)
	dst = append(dst, `,"gx":`...)
	dst = strconv.AppendFloat(dst, s.Gyro.X, 'g', -1, 64)
	dst = append(dst, `,"gy":`...)
	dst = strconv.AppendFloat(dst, s.Gyro.Y, 'g', -1, 64)
	dst = append(dst, `,"gz":`...)
	dst = strconv.AppendFloat(dst, s.Gyro.Z, 'g', -1, 64)
	dst = append(dst, `,"yaw":`...)
	dst = strconv.AppendFloat(dst, s.Yaw, 'g', -1, 64)
	dst = append(dst, '}', '\n')
	return dst
}

// AppendSampleBinary appends the 64-byte binary frame of s to dst. The
// stream magic is the caller's concern (see AppendBinaryHeader).
func AppendSampleBinary(dst []byte, s trace.Sample) []byte {
	for _, v := range [8]float64{
		s.T, s.Accel.X, s.Accel.Y, s.Accel.Z,
		s.Gyro.X, s.Gyro.Y, s.Gyro.Z, s.Yaw,
	} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendBinaryHeader appends the binary stream magic to dst.
func AppendBinaryHeader(dst []byte) []byte { return append(dst, BinaryMagic...) }

// Decoder reads samples from an NDJSON or binary request body. It
// amortises reads through one internal buffer and parses in place, so
// NextBlock allocates nothing at steady state. Construct with
// NewDecoder and call NextBlock until it returns an error.
type Decoder struct {
	r       io.Reader
	binary  bool
	buf     []byte
	start   int // unconsumed region is buf[start:end]
	end     int
	eof     bool
	readErr error // non-EOF reader failure, surfaced once input runs dry
	magic   bool  // binary magic already consumed
	n       int   // samples decoded, for error positions
}

// binaryBufFrames sizes the binary decode buffer: the stream magic plus
// this many whole frames. Frame-aligning the capacity means a reader
// that fills the buffer leaves no partial-frame tail behind, so the
// compacting memmove in fill moves zero bytes at steady state instead
// of dragging a partial frame across every refill.
const binaryBufFrames = 128

// NewDecoder returns a decoder for the given content type
// (ContentTypeNDJSON or ContentTypeBinary; anything else defaults to
// NDJSON — the server routes unknown content types away beforehand).
func NewDecoder(r io.Reader, contentType string) *Decoder {
	bin := contentType == ContentTypeBinary
	capacity := 2 * MaxLineLen
	if bin {
		capacity = len(BinaryMagic) + binaryBufFrames*BinaryFrameSize
	}
	return &Decoder{
		r:      r,
		binary: bin,
		buf:    make([]byte, 0, capacity),
	}
}

// Decoded returns how many samples the decoder has returned so far.
func (d *Decoder) Decoded() int { return d.n }

// NextBlock decodes up to max samples into dst (reusing its capacity)
// and returns the decoded prefix. It can return samples AND an error:
// the samples decoded before the stream ended or broke, with io.EOF at
// a clean end, an error wrapping ErrFormat or ErrLineTooLong on
// malformed input, or a reader failure (e.g. http.MaxBytesReader's
// cap) as-is — a truncated trailing record is attributed to the read
// failure, not to the format. Callers must consume the returned samples
// before acting on the error. Blank NDJSON lines are skipped, and a
// final line without its newline is accepted.
func (d *Decoder) NextBlock(dst []trace.Sample, max int) ([]trace.Sample, error) {
	dst = dst[:0]
	for {
		// Decode every whole record already buffered.
		var err error
		if d.binary {
			dst, err = d.frames(dst, max)
		} else {
			dst, err = d.lines(dst, max)
		}
		if err != nil || len(dst) >= max {
			return dst, err
		}
		if d.fill() {
			continue
		}
		// The input ended.
		rest := d.buf[d.start:d.end]
		switch {
		case d.readErr != nil:
			return dst, d.readErr
		case !d.binary:
			d.start = d.end
			if dst, err = d.appendLine(dst, rest); err != nil {
				return dst, err
			}
			return dst, io.EOF
		case len(rest) == 0:
			return dst, io.EOF
		case !d.magic:
			return dst, fmt.Errorf("%w: truncated stream magic", ErrFormat)
		default:
			return dst, fmt.Errorf("%w: truncated frame after sample %d (%d trailing bytes)",
				ErrFormat, d.n, len(rest))
		}
	}
}

// frames consumes the binary stream magic, once, then decodes every
// whole buffered frame onto dst, up to max samples.
func (d *Decoder) frames(dst []trace.Sample, max int) ([]trace.Sample, error) {
	if !d.magic {
		if d.end-d.start < len(BinaryMagic) {
			return dst, nil
		}
		if string(d.buf[d.start:d.start+len(BinaryMagic)]) != BinaryMagic {
			return dst, fmt.Errorf("%w: missing %q stream magic", ErrFormat, BinaryMagic)
		}
		d.start += len(BinaryMagic)
		d.magic = true
	}
	start := d.start // a local offset keeps the loop free of stores to d
	for d.end-start >= BinaryFrameSize && len(dst) < max {
		dst = append(dst, decodeFrame(d.buf[start:start+BinaryFrameSize]))
		start += BinaryFrameSize
	}
	d.n += (start - d.start) / BinaryFrameSize
	d.start = start
	return dst, nil
}

// lines decodes every complete buffered NDJSON line onto dst, up to max
// samples.
func (d *Decoder) lines(dst []trace.Sample, max int) ([]trace.Sample, error) {
	for len(dst) < max {
		i := bytes.IndexByte(d.buf[d.start:d.end], '\n')
		if i < 0 {
			if d.end-d.start > MaxLineLen {
				return dst, fmt.Errorf("sample %d: %w (%d bytes)", d.n, ErrLineTooLong, d.end-d.start)
			}
			return dst, nil
		}
		line := d.buf[d.start : d.start+i]
		d.start += i + 1
		var err error
		if dst, err = d.appendLine(dst, line); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendLine decodes one NDJSON line onto dst; a blank line adds
// nothing.
func (d *Decoder) appendLine(dst []trace.Sample, line []byte) ([]trace.Sample, error) {
	if blank := (cursor{b: line}); blank.skip() == 0 {
		return dst, nil
	}
	if len(line) > MaxLineLen {
		return dst, fmt.Errorf("sample %d: %w (%d bytes)", d.n, ErrLineTooLong, len(line))
	}
	s, err := parseSampleLine(line)
	if err != nil {
		return dst, fmt.Errorf("sample %d: %w", d.n, err)
	}
	d.n++
	return append(dst, s), nil
}

// fill reads more input, compacting the buffer so the unconsumed tail
// keeps its capacity. It returns false at EOF with no new data.
func (d *Decoder) fill() bool {
	if d.eof {
		return false
	}
	if d.start > 0 {
		d.end = copy(d.buf[:cap(d.buf)], d.buf[d.start:d.end])
		d.start = 0
		d.buf = d.buf[:d.end]
	}
	if d.end == cap(d.buf) {
		// Buffer full without a complete record: unreachable, since
		// lines refuses a pending line beyond MaxLineLen (capacity is
		// 2*MaxLineLen) and frames drains whole frames first.
		return false
	}
	n, err := d.r.Read(d.buf[d.end:cap(d.buf)])
	d.end += n
	d.buf = d.buf[:d.end]
	if err != nil {
		d.eof = true
		if err != io.EOF {
			d.readErr = err
		}
	}
	return n > 0
}

// decodeFrame decodes one 64-byte binary frame (b must hold exactly
// BinaryFrameSize bytes).
func decodeFrame(b []byte) trace.Sample {
	var f [8]float64
	for i := range f {
		f[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return frameSample(f)
}

// sampleKeys are the keys of an NDJSON sample object in frame order, so
// a key's index is its slot in the frame.
var sampleKeys = newKeySet("t", "ax", "ay", "az", "gx", "gy", "gz", "yaw")

// parseSampleLine parses one NDJSON sample object. It accepts the
// fields in any order and tolerates missing ones (zero), like the
// legacy CSV layout with its optional gyro. Unknown or duplicate keys
// and non-numeric values are format errors — silently ignoring them
// would hide producer bugs.
func parseSampleLine(line []byte) (trace.Sample, error) {
	p := cursor{b: line, what: "line"}
	var f [8]float64
	err := p.object(sampleKeys, func(k int) (err error) {
		f[k], err = p.number()
		return err
	})
	if err == nil && p.skip() != 0 {
		err = p.errorf("trailing data")
	}
	return frameSample(f), err
}

// Event is the JSON shape of one streaming classification event, the
// SSE data payload. Label travels as its name ("walking") — readable
// and stable across enum renumbering.
type Event struct {
	T          float64   `json:"t"`
	Label      string    `json:"label"`
	StepsAdded int       `json:"steps_added"`
	Strides    []float64 `json:"strides,omitempty"`
	TotalSteps int       `json:"total_steps"`
	Offset     float64   `json:"offset"`
}

// SSE event names used on /v1/sessions/{id}/events.
const (
	SSEEventCycle = "cycle"
	SSEEventEnd   = "end"
	// SSEEventGap tells a subscriber that the server dropped events
	// from its stream (its fan-out buffer overflowed while it was slow
	// to read). The data payload carries the subscription's cumulative
	// dropped count; the next cycle event's total_steps is authoritative,
	// so a consumer resyncs by trusting it over its own event arithmetic.
	SSEEventGap = "gap"
	// SSEEventMoved ends a stream because the session's shard moved to
	// another replica (cluster rebalance): the session is still live, so
	// the subscriber should reconnect — routing finds the new owner. The
	// data payload names the new owner's base URL for clients that
	// target replicas directly.
	SSEEventMoved = "moved"
)

// Moved is the JSON payload of one SSE moved event.
type Moved struct {
	// Owner is the base URL of the replica that now owns the session
	// ("" when the source does not know it).
	Owner string `json:"owner,omitempty"`
}

// AppendMoved appends the deterministic JSON encoding of a moved notice
// to dst.
func AppendMoved(dst []byte, owner string) []byte {
	b, _ := json.Marshal(Moved{Owner: owner})
	return append(dst, b...)
}

// Gap is the JSON payload of one SSE gap event.
type Gap struct {
	// Dropped is the cumulative number of events this subscription has
	// lost since it attached — monotonic, so a consumer diffs against
	// the last value it saw to size the newest gap.
	Dropped int64 `json:"dropped"`
}

// AppendGap appends the deterministic JSON encoding of a gap notice
// carrying the cumulative dropped count to dst.
func AppendGap(dst []byte, dropped int64) []byte {
	dst = append(dst, `{"dropped":`...)
	dst = strconv.AppendInt(dst, dropped, 10)
	return append(dst, '}')
}

// ParseGapJSON decodes an SSE gap payload produced by AppendGap.
func ParseGapJSON(data []byte) (int64, error) {
	var g Gap
	if err := json.Unmarshal(data, &g); err != nil {
		return 0, fmt.Errorf("wire: decoding gap: %w", err)
	}
	if g.Dropped < 0 {
		return 0, fmt.Errorf("%w: negative gap count %d", ErrFormat, g.Dropped)
	}
	return g.Dropped, nil
}

// AppendEvent appends the deterministic JSON encoding of ev to dst.
// Field order and float formatting are fixed, so equal events encode to
// equal bytes — the property the end-to-end parity tests pin.
func AppendEvent(dst []byte, ev stream.Event) []byte {
	dst = append(dst, `{"t":`...)
	dst = strconv.AppendFloat(dst, ev.T, 'g', -1, 64)
	dst = append(dst, `,"label":"`...)
	dst = append(dst, ev.Label.String()...)
	dst = append(dst, `","steps_added":`...)
	dst = strconv.AppendInt(dst, int64(ev.StepsAdded), 10)
	if len(ev.Strides) > 0 {
		dst = append(dst, `,"strides":[`...)
		for i, v := range ev.Strides {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"total_steps":`...)
	dst = strconv.AppendInt(dst, int64(ev.TotalSteps), 10)
	dst = append(dst, `,"offset":`...)
	dst = strconv.AppendFloat(dst, ev.Offset, 'g', -1, 64)
	dst = append(dst, '}')
	return dst
}

// ParseEventJSON decodes an SSE data payload produced by AppendEvent
// back into a stream.Event.
func ParseEventJSON(data []byte) (stream.Event, error) {
	var we Event
	if err := json.Unmarshal(data, &we); err != nil {
		return stream.Event{}, fmt.Errorf("wire: decoding event: %w", err)
	}
	ev := stream.Event{
		T:          we.T,
		StepsAdded: we.StepsAdded,
		Strides:    we.Strides,
		TotalSteps: we.TotalSteps,
		Offset:     we.Offset,
	}
	label, err := ParseLabel(we.Label)
	if err != nil {
		return stream.Event{}, err
	}
	ev.Label = label
	return ev, nil
}

// ParseLabel converts a gaitid.Label name produced by Label.String back
// into the label value.
func ParseLabel(s string) (gaitid.Label, error) {
	for _, l := range []gaitid.Label{gaitid.LabelInterference, gaitid.LabelWalking, gaitid.LabelStepping} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("wire: unknown cycle label %q", s)
}
