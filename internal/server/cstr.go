package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/cognitive-sim/compass/internal/spikeio"
)

// The CSTR stream protocol, shared by compassd's stream plane, the
// stream client, and the cluster coordinator's stream proxy. A client
// connects, sends one hello, and then speaks length-prefixed frames of
// CSPK-shaped spike records (spikeio.RecordSize bytes each) in either
// or both directions:
//
//	hello (client → server):
//	    "CSTR"  u8 version  u8 flags  u16le idLen  idLen×id bytes
//	reply (server → client):
//	    "CSOK"                         — accepted
//	    "CERR"  u16le msgLen  msg      — rejected, connection closes
//	frames (both directions, after acceptance):
//	    u32le recordCount  recordCount×14-byte records
//
// With StreamFlagInject set, client frames are queued for injection at
// the session's next tick boundary. With StreamFlagSubscribe set, the
// server pushes the session's fired spikes as frames. A zero-count
// frame is a no-op keepalive in either direction. Writers split a
// batch into frames of at most egressBatch records; readers reject a
// frame header above maxFrameRecords.
const (
	streamMagic   = "CSTR"
	streamOK      = "CSOK"
	streamErrTag  = "CERR"
	streamVersion = 1

	// StreamFlagInject requests client→session spike injection.
	StreamFlagInject byte = 1 << 0
	// StreamFlagSubscribe requests session→client spike egress.
	StreamFlagSubscribe byte = 1 << 1

	// maxSessionIDLen bounds the hello's session ID.
	maxSessionIDLen = 256

	// maxFrameRecords bounds one frame header (16 MiB of records).
	maxFrameRecords = 1 << 20

	// egressBatch is the writers' maximum records per frame, and the
	// reader's maximum records per piece.
	egressBatch = 4096

	// maxRejectLen bounds a CERR message.
	maxRejectLen = 1 << 15
)

// HandshakeTimeout bounds how long a connection may take to send its
// hello (stream plane) or its request header (HTTP servers).
const HandshakeTimeout = 10 * time.Second

// WriteHello sends the client hello binding the connection to a session
// with the given flags.
func WriteHello(w io.Writer, sessionID string, flags byte) error {
	hello := make([]byte, 0, 8+len(sessionID))
	hello = append(hello, streamMagic...)
	hello = append(hello, streamVersion, flags)
	hello = binary.LittleEndian.AppendUint16(hello, uint16(len(sessionID)))
	hello = append(hello, sessionID...)
	_, err := w.Write(hello)
	return err
}

// ReadHello parses a client hello.
func ReadHello(r io.Reader) (flags byte, id string, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", fmt.Errorf("server: handshake read: %w", err)
	}
	if string(hdr[:4]) != streamMagic {
		return 0, "", fmt.Errorf("server: bad handshake magic %q", hdr[:4])
	}
	if hdr[4] != streamVersion {
		return 0, "", fmt.Errorf("server: unsupported stream version %d", hdr[4])
	}
	idLen := binary.LittleEndian.Uint16(hdr[6:])
	if idLen == 0 || idLen > maxSessionIDLen {
		return 0, "", fmt.Errorf("server: session id length %d out of range", idLen)
	}
	idBuf := make([]byte, idLen)
	if _, err := io.ReadFull(r, idBuf); err != nil {
		return 0, "", fmt.Errorf("server: handshake id read: %w", err)
	}
	return hdr[5], string(idBuf), nil
}

// WriteReply answers a hello: CSOK when rejected is nil, otherwise CERR
// carrying its message, after which the caller closes the connection.
func WriteReply(w io.Writer, rejected error) error {
	if rejected == nil {
		_, err := io.WriteString(w, streamOK)
		return err
	}
	msg := rejected.Error()
	if len(msg) > maxRejectLen {
		msg = msg[:maxRejectLen]
	}
	buf := make([]byte, 0, 6+len(msg))
	buf = append(buf, streamErrTag...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	_, err := w.Write(buf)
	return err
}

// ReadReply reads the server's answer to a hello: nil for CSOK, the
// server's message for CERR.
func ReadReply(r io.Reader) error {
	var tag [4]byte
	if _, err := io.ReadFull(r, tag[:]); err != nil {
		return fmt.Errorf("server: handshake reply: %w", err)
	}
	switch string(tag[:]) {
	case streamOK:
		return nil
	case streamErrTag:
		var lenBuf [2]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return fmt.Errorf("server: handshake rejected")
		}
		msg := make([]byte, binary.LittleEndian.Uint16(lenBuf[:]))
		if _, err := io.ReadFull(r, msg); err != nil {
			return fmt.Errorf("server: handshake rejected")
		}
		return fmt.Errorf("server: %s", msg)
	default:
		return fmt.Errorf("server: bad handshake reply %q", tag[:])
	}
}

// FrameWriter encodes spike batches as frames through one reusable
// scratch buffer. It is not safe for concurrent use.
type FrameWriter struct {
	w   io.Writer
	buf []byte
}

// NewFrameWriter returns a frame writer on w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: w, buf: make([]byte, 4+egressBatch*spikeio.RecordSize)}
}

// Write sends events as frames of at most egressBatch records each; an
// empty batch is sent as one keepalive frame.
func (fw *FrameWriter) Write(events []spikeio.Event) error {
	for {
		n := min(len(events), egressBatch)
		binary.LittleEndian.PutUint32(fw.buf, uint32(n))
		for i, ev := range events[:n] {
			spikeio.EncodeRecord(fw.buf[4+i*spikeio.RecordSize:], ev)
		}
		if _, err := fw.w.Write(fw.buf[:4+n*spikeio.RecordSize]); err != nil {
			return err
		}
		if events = events[n:]; len(events) == 0 {
			return nil
		}
	}
}

// FrameSizeError reports a frame header above the reader's limit.
type FrameSizeError struct {
	Count, Limit uint32
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("server: frame of %d records exceeds limit of %d", e.Count, e.Limit)
}

// FrameReader decodes frames in pieces of at most egressBatch records,
// so memory grows only with records actually read, never with a header
// count. It is not safe for concurrent use.
type FrameReader struct {
	r     io.Reader
	limit uint32 // largest acceptable frame header
	left  uint32 // records of the current frame not yet read
	buf   []byte // one piece of encoded records
}

// NewFrameReader returns a frame reader on r. records reports whether
// the peer may send records at all: a subscribe-only peer may send only
// keepalives, so any non-empty frame from it is rejected at its header.
func NewFrameReader(r io.Reader, records bool) *FrameReader {
	fr := &FrameReader{r: r, buf: make([]byte, egressBatch*spikeio.RecordSize)}
	if records {
		fr.limit = maxFrameRecords
	}
	return fr
}

// Next appends the next piece of the current frame to dst and returns
// it, skipping keepalives. It returns io.EOF only when the stream ends
// at a frame boundary, *FrameSizeError for an oversized header, and a
// wrapped io.ErrUnexpectedEOF for a stream cut inside a frame.
func (fr *FrameReader) Next(dst []spikeio.Event) ([]spikeio.Event, error) {
	for fr.left == 0 {
		var hdr [4]byte
		if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
			if err != io.EOF {
				err = fmt.Errorf("server: frame header: %w", err)
			}
			return dst, err
		}
		count := binary.LittleEndian.Uint32(hdr[:])
		if count > fr.limit {
			return dst, &FrameSizeError{Count: count, Limit: fr.limit}
		}
		fr.left = count
	}
	n := min(int(fr.left), egressBatch)
	chunk := fr.buf[:n*spikeio.RecordSize]
	if _, err := io.ReadFull(fr.r, chunk); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return dst, fmt.Errorf("server: frame truncated with %d records unread: %w", fr.left, err)
	}
	fr.left -= uint32(n)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, spikeio.DecodeRecord(chunk[i*spikeio.RecordSize:]))
	}
	return dst, nil
}
