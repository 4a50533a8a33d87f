package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// This file is the serving path's response writer: bodies are encoded with
// encoding/json (HTML escaping on, trailing newline — the bytes
// json.NewEncoder(w).Encode(v) produces) into a pooled buffer, then sent in
// exactly one ResponseWriter.Write with Content-Length set. The encoder only
// runs on response-cache misses; a hit writes the stored bytes verbatim.

// rawJSON is a fully encoded response body (trailing newline included).
// Handlers return it when the bytes already exist — a response-cache hit,
// or a just-encoded body that is also being stored — and writeJSON sends
// it verbatim.
type rawJSON []byte

type encodeBuf struct{ b []byte }

var encPool = sync.Pool{
	New: func() any { return &encodeBuf{b: make([]byte, 0, 1024)} },
}

// writeJSON encodes body and writes it with Content-Length set, buffering
// through a pooled scratch so the response goes out in one Write. It
// returns the body's byte length — the usage ledger charges response bytes
// to the tenant.
func writeJSON(w http.ResponseWriter, status int, body any) int {
	if raw, ok := body.(rawJSON); ok {
		return writeBody(w, status, raw)
	}
	eb := encPool.Get().(*encodeBuf)
	eb.b = encodeResponse(eb.b[:0], body)
	n := writeBody(w, status, eb.b)
	encPool.Put(eb)
	return n
}

func writeBody(w http.ResponseWriter, status int, body []byte) int {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // the status line is already out; nothing to do on error
	return len(body)
}

// encodeResponse appends body's encoding, trailing newline included, to b.
func encodeResponse(b []byte, body any) []byte {
	buf := bytes.NewBuffer(b)
	_ = json.NewEncoder(buf).Encode(body) // response types always encode
	return buf.Bytes()
}
