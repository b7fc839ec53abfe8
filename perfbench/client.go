package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/server"
)

// newHTTPClient returns a client that keeps at most conns connections
// to its daemon.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// httpExecutor posts ops to the daemon at addr.
func httpExecutor(hc *http.Client, addr string) executor {
	base := "http://" + addr
	return func(ctx context.Context, _ int, o *op) outcome {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.path(), bytes.NewReader(o.body))
		if err != nil {
			return outcome{err: err.Error()}
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return outcome{err: err.Error()}
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return outcome{err: err.Error()}
		}
		return normalize(o, resp.StatusCode, body)
	}
}

// normalize turns one response into a comparable answer:
//
//	count, aggregate  "c:<count>"
//	eval              "e:<count>:<sha256 of the tuple sample>"
//	stream            "s:<sha256 of the whole NDJSON body>"
//	update            "u:<version>"
//
// Stream bodies are hashed whole: a coordinator's merged stream is
// byte-identical to a single engine's, and any error line changes the
// hash as well as failing the request here.
func normalize(o *op, status int, body []byte) outcome {
	out := outcome{bytes: len(body)}
	if status != http.StatusOK {
		out.err = fmt.Sprintf("status %d: %s", status, bytes.TrimSpace(body))
		return out
	}
	if o.Update != nil {
		var r server.UpdateResult
		if err := json.Unmarshal(body, &r); err != nil {
			out.err = err.Error()
			return out
		}
		out.version, out.compact = r.Version, r.Compacted
		out.ok = r.Applied
		if !r.Applied {
			out.err = "update had no effect"
		}
		out.answer = fmt.Sprintf("u:%d", r.Version)
		return out
	}
	if o.Query.Mode == "stream" {
		sum := sha256.Sum256(body)
		out.answer = "s:" + hex.EncodeToString(sum[:])
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		last := lines[len(lines)-1]
		if !bytes.HasPrefix(last, []byte(`{"summary":`)) {
			out.err = "stream did not end with a summary: " + string(last)
			return out
		}
		out.rows = int64(len(lines) - 2)
		out.ok = true
		return out
	}
	var r server.Response
	if err := json.Unmarshal(body, &r); err != nil {
		out.err = err.Error()
		return out
	}
	out.versions = r.Versions
	out.ok = true
	if o.Query.Mode == "eval" {
		b, _ := json.Marshal(r.Tuples) // [][]int64: cannot fail
		sum := sha256.Sum256(b)
		out.answer = fmt.Sprintf("e:%d:%s", r.Count, hex.EncodeToString(sum[:8]))
		return out
	}
	out.answer = fmt.Sprintf("c:%d", r.Count)
	return out
}
