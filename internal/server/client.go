package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"github.com/cognitive-sim/compass/internal/spikeio"
)

// Client speaks a compassd control plane. It serves both surfaces: a
// single daemon (/v1/sessions) and a cluster coordinator
// (/v1/cluster/sessions). Dial probes /healthz and binds to whichever
// answers, so a caller holding a Client is cluster-transparent;
// NewClient binds the daemon surface without a probe (the coordinator's
// node calls and the node agent's coordinator calls, whose peers are
// known). Every non-2xx response surfaces the peer's {"error": …}
// envelope as a Go error.
type Client struct {
	addr       string
	streamAddr string
	cluster    bool
	hc         *http.Client
}

// NewClient returns a client for the daemon control plane at addr whose
// requests time out after timeout.
func NewClient(addr string, timeout time.Duration) *Client {
	return &Client{addr: addr, hc: &http.Client{Timeout: timeout}}
}

// Dial probes a compassd or coordinator control plane and returns a
// client bound to the surface it serves.
func Dial(addr string) (*Client, error) {
	c := NewClient(addr, 120*time.Second)
	var h struct {
		Role       string `json:"role"`
		StreamAddr string `json:"stream_addr"`
	}
	if err := c.Do(http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, fmt.Errorf("server: probe %s: %w", addr, err)
	}
	c.cluster = h.Role == "coordinator"
	c.streamAddr = h.StreamAddr
	if c.streamAddr == "" {
		return nil, fmt.Errorf("server: %s advertises no stream plane", addr)
	}
	return c, nil
}

// Addr returns the control-plane address the client talks to.
func (c *Client) Addr() string { return c.addr }

// Cluster reports whether the client is bound to a coordinator.
func (c *Client) Cluster() bool { return c.cluster }

// StreamAddr returns the bound stream plane address (empty for a
// NewClient client).
func (c *Client) StreamAddr() string { return c.streamAddr }

func (c *Client) base() string {
	if c.cluster {
		return "/v1/cluster/sessions"
	}
	return "/v1/sessions"
}

// Do issues one request, JSON-encoding body when non-nil. A 2xx
// response body is decoded into out: JSON unless out is a *[]byte,
// which receives the raw bytes; a nil out discards it. Do serves the
// routes without a typed method (cluster migrate and nodes, the node
// agent's calls, /metrics).
func (c *Client) Do(method, path string, body, out any) error {
	resp, err := c.send(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*out, err = io.ReadAll(resp.Body)
		return err
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// send performs the request and returns the response of a 2xx status;
// any other status is read for its error envelope and closed.
func (c *Client) send(method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, "http://"+c.addr+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode <= 299 {
		return resp, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		return nil, fmt.Errorf("server: %s %s %s: %s", c.addr, method, path, env.Error)
	}
	if len(raw) > 512 {
		raw = raw[:512]
	}
	return nil, fmt.Errorf("server: %s %s %s: %s: %s", c.addr, method, path, resp.Status, bytes.TrimSpace(raw))
}

// decodeSession reads both surfaces' session documents: a daemon
// returns Info inline, a coordinator wraps it in a status document with
// the cluster-stable ID (and no Info while the owner is unreachable).
func decodeSession(raw json.RawMessage) (string, *Info, error) {
	var env struct {
		ClusterID string `json:"cluster_id"`
		Info      *Info  `json:"info"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return "", nil, err
	}
	if env.ClusterID != "" {
		return env.ClusterID, env.Info, nil
	}
	var info Info
	if err := json.Unmarshal(raw, &info); err != nil {
		return "", nil, err
	}
	return info.ID, &info, nil
}

// session issues one request answered by a session document.
func (c *Client) session(method, path string, body any) (string, *Info, error) {
	var raw json.RawMessage
	if err := c.Do(method, path, body, &raw); err != nil {
		return "", nil, err
	}
	return decodeSession(raw)
}

func (c *Client) sessionInfo(method, path string, body any) (*Info, error) {
	_, info, err := c.session(method, path, body)
	return info, err
}

// Create admits a session and returns its (cluster-stable) ID and
// initial info.
func (c *Client) Create(req *CreateRequest) (string, *Info, error) {
	return c.session(http.MethodPost, c.base(), req)
}

// Step grants the session exactly ticks further ticks and returns after
// they have simulated (the session parks at the boundary). minInjected,
// when nonzero, is the inject barrier: the daemon holds the grant until
// the session has ingested that many streamed spikes, closing the race
// between the stream connection and this control-plane call.
func (c *Client) Step(id string, ticks, minInjected uint64) (*Info, error) {
	return c.sessionInfo(http.MethodPost, c.base()+"/"+id+"/step",
		&StepRequest{Ticks: ticks, MinInjected: minInjected})
}

// Info fetches the session's status document.
func (c *Client) Info(id string) (*Info, error) {
	return c.sessionInfo(http.MethodGet, c.base()+"/"+id, nil)
}

// Pause parks the session at its next chunk boundary and returns the
// settled info.
func (c *Client) Pause(id string) (*Info, error) {
	return c.sessionInfo(http.MethodPost, c.base()+"/"+id+"/pause", nil)
}

// Resume releases a parked session once it has ingested minInjected
// streamed spikes (the inject barrier; 0 releases at once).
func (c *Client) Resume(id string, minInjected uint64) (*Info, error) {
	return c.sessionInfo(http.MethodPost, c.base()+"/"+id+"/resume",
		&ResumeRequest{MinInjected: minInjected})
}

// Stop cancels the session and returns its terminal info.
func (c *Client) Stop(id string) (*Info, error) {
	return c.sessionInfo(http.MethodPost, c.base()+"/"+id+"/stop", nil)
}

// ScenarioReport folds episode progress into the serving daemon's
// per-scenario telemetry.
func (c *Client) ScenarioReport(id string, req *ScenarioReportRequest) error {
	return c.Do(http.MethodPost, c.base()+"/"+id+"/scenario-report", req, nil)
}

// Checkpoint downloads the session's latest boundary checkpoint in the
// binary CMPC form.
func (c *Client) Checkpoint(id string) ([]byte, error) {
	var raw []byte
	err := c.Do(http.MethodGet, c.base()+"/"+id+"/checkpoint", nil, &raw)
	return raw, err
}

// Remove stops and deletes the session.
func (c *Client) Remove(id string) error {
	return c.Do(http.MethodDelete, c.base()+"/"+id, nil, nil)
}

// Export parks a daemon session at its next chunk boundary and returns
// its portable document. Daemon surface only.
func (c *Client) Export(id string) (*ExportDoc, error) {
	var doc ExportDoc
	if err := c.Do(http.MethodPost, "/v1/sessions/"+id+"/export", nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Import admits an exported session on a daemon. Daemon surface only.
func (c *Client) Import(req *ImportRequest) (*Info, error) {
	return c.sessionInfo(http.MethodPost, "/v1/sessions/import", req)
}

// Model pulls a serialized binary model by content hash from a daemon
// (GET /v1/models/{hash}), refusing bodies over maxWireModelBytes. The
// caller verifies the rebuilt image's hash; this only moves bytes.
func (c *Client) Model(hash string) ([]byte, error) {
	resp, err := c.send(http.MethodGet, "/v1/models/"+hash, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxWireModelBytes+1))
	if err != nil {
		return nil, err
	}
	if len(raw) > maxWireModelBytes {
		return nil, fmt.Errorf("server: peer %s model exceeds %d bytes", c.addr, maxWireModelBytes)
	}
	return raw, nil
}

// DialStream opens the session's spike stream on the bound stream plane
// with the given flags.
func (c *Client) DialStream(id string, flags byte) (*StreamClient, error) {
	return DialStream(c.streamAddr, id, flags)
}

// StreamClient is a minimal data-plane client: it performs the CSTR
// handshake and exchanges record frames. Tests, cmd/smoke, the scenario
// engine and the cluster proxy use it. One goroutine may Send while
// another Recvs; concurrent Sends (or Recvs) are not safe.
type StreamClient struct {
	conn net.Conn
	fw   *FrameWriter
	fr   *FrameReader
}

// DialStream connects to a server's stream listener and binds to a
// session with the given flags (StreamFlagInject, StreamFlagSubscribe,
// or both).
func DialStream(addr, sessionID string, flags byte) (*StreamClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	if err = WriteHello(conn, sessionID, flags); err == nil {
		err = ReadReply(br)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &StreamClient{conn: conn, fw: NewFrameWriter(conn), fr: NewFrameReader(br, true)}, nil
}

// Send writes spike records for injection, split into frames of at
// most egressBatch records.
func (c *StreamClient) Send(events []spikeio.Event) error { return c.fw.Write(events) }

// Recv reads the next piece of egress (at most egressBatch records) into
// a fresh slice. It returns io.EOF once the server has closed the stream
// (session over) at a frame boundary.
func (c *StreamClient) Recv() ([]spikeio.Event, error) { return c.fr.Next(nil) }

// CloseWrite half-closes the connection: the server sees end-of-inject
// while egress frames keep flowing. No-op error on non-TCP conns.
func (c *StreamClient) CloseWrite() error {
	if tc, ok := c.conn.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return fmt.Errorf("server: connection does not support half-close")
}

// Close tears the connection down.
func (c *StreamClient) Close() error { return c.conn.Close() }
