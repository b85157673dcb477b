package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/cognitive-sim/compass/internal/spikeio"
)

// serveStreamConn handles one data-plane connection end to end.
func (srv *Server) serveStreamConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(HandshakeTimeout))
	flags, id, err := ReadHello(conn)
	var sess *Session
	if err == nil {
		sess, err = srv.mgr.Get(id)
	}
	if err == nil && flags&(StreamFlagInject|StreamFlagSubscribe) == 0 {
		err = fmt.Errorf("server: handshake requests neither inject nor subscribe")
	}
	if err != nil {
		WriteReply(conn, err)
		return
	}
	conn.SetReadDeadline(time.Time{})
	// Register the subscription before acknowledging the handshake, so a
	// client that attaches to a parked session and then resumes it is
	// guaranteed the subscriber existed before the first tick ran.
	var sub *subscriber
	if flags&StreamFlagSubscribe != 0 {
		sub = sess.sink.subscribe()
		defer sess.sink.unsubscribe(sub)
	}
	if WriteReply(conn, nil) != nil {
		return
	}

	// The reader consumes inject frames (or just watches for the peer
	// closing the connection) on its own goroutine, so this goroutine is
	// free to react when the egress writer finishes.
	var violation bool
	readerDone := make(chan struct{})
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		defer close(readerDone)
		violation = readIngest(conn, sess, flags&StreamFlagInject != 0)
	}()

	if sub == nil {
		<-readerDone
		return
	}

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		writeEgress(conn, sub)
	}()

	select {
	case <-writerDone:
		// Egress exhausted: the session ended (or the write side broke).
		// Half-close our write side so the client reads a clean EOF
		// immediately, then drain the ingest reader under a deadline
		// before the full close, so inject frames already on the wire are
		// processed first (closing with unread data would send a reset
		// instead). A peer that never half-closes is cut off when the
		// deadline expires.
		if cw, ok := conn.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite()
		}
		conn.SetReadDeadline(time.Now().Add(HandshakeTimeout))
		<-readerDone
		return
	case <-readerDone:
		if violation {
			// A misbehaving peer loses its stream immediately.
			sess.sink.unsubscribe(sub)
			<-writerDone
			return
		}
		// A clean half-close keeps egress flowing: the writer runs until
		// the session ends or the write side of the connection fails.
		<-writerDone
	}
}

// readIngest consumes frames until EOF or error, reporting whether the
// peer violated the protocol (an oversized frame, or a non-empty frame
// from a subscribe-only peer — violations forfeit the egress stream,
// while a clean half-close keeps it flowing).
func readIngest(r io.Reader, sess *Session, inject bool) (violation bool) {
	fr := NewFrameReader(r, inject)
	events := make([]spikeio.Event, 0, egressBatch)
	for {
		var err error
		if events, err = fr.Next(events[:0]); err != nil {
			var tooBig *FrameSizeError
			return errors.As(err, &tooBig)
		}
		sess.source.Inject(events)
	}
}

// writeEgress drains the subscriber into frames until it closes (the
// connection dropped, the client unsubscribed, or the session ended)
// or the connection breaks.
func writeEgress(w io.Writer, sub *subscriber) {
	fw := NewFrameWriter(w)
	batch := make([]spikeio.Event, 0, egressBatch)
	for {
		out := sub.next(batch)
		if out == nil || fw.Write(out) != nil {
			return
		}
	}
}

// acceptStreams accepts data-plane connections until the listener
// closes.
func (srv *Server) acceptStreams(ln net.Listener) {
	defer srv.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.serveStreamConn(conn)
		}()
	}
}
