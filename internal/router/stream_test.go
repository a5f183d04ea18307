package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"newsum/internal/service"
)

// flushCounter serves h with a ResponseWriter that counts its Flush calls.
func flushCounter(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(countingFlusher{w, n}, r)
	})
}

type countingFlusher struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (c countingFlusher) Flush() {
	c.n.Add(1)
	c.ResponseWriter.(http.Flusher).Flush()
}

// TestStreamFlushesCoalesce: a tiny streamed job writes five lines, and
// neither the service nor the router flushes each one on its own. Both
// tiers flush only when their next read could block, so a job whose lines
// arrive together costs one flush or none, not five.
func TestStreamFlushesCoalesce(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(svc.Close)
	var svcFlushes, rtFlushes atomic.Int64
	backend := httptest.NewServer(flushCounter(svc.Handler(), &svcFlushes))
	t.Cleanup(backend.Close)
	rt, err := New(fastSupervision(&StaticBackend{Base: backend.URL}))
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	srv := httptest.NewServer(flushCounter(rt.Handler(), &rtFlushes))
	t.Cleanup(func() {
		srv.Close()
		if err := rt.Close(); err != nil {
			t.Errorf("router.Close: %v", err)
		}
	})

	const jobs = 100
	body, _ := json.Marshal(service.Request{Matrix: tinySpec})
	for i := 0; i < jobs; i++ {
		resp, err := http.Post(srv.URL+"/solve?stream=1", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		lines := strings.SplitAfter(string(raw), "\n")
		if len(lines) != 6 || lines[5] != "" {
			t.Fatalf("job %d: %d lines %q, want start, cache, attempt and result events, then the result", i, len(lines)-1, raw)
		}
		for _, l := range lines[:4] {
			if !strings.HasPrefix(l, string(progressPrefix)) {
				t.Fatalf("job %d: progress line %q does not start with the relay's prefix", i, l)
			}
		}
		var last relayedLine
		if err := json.Unmarshal([]byte(lines[4]), &last); err != nil || last.Event != "result" || !last.Result.Converged {
			t.Fatalf("job %d: terminal line %q (%v), want a converged result", i, lines[4], err)
		}
	}
	perJob := func(n *atomic.Int64) float64 { return float64(n.Load()) / jobs }
	s, r := perJob(&svcFlushes), perJob(&rtFlushes)
	t.Logf("flushes per job: service %.2f, router %.2f", s, r)
	if s > 2 || r > 2 {
		t.Fatalf("want at most 2 flushes per job at each tier")
	}
}

// TestRouterStreamRelaysBeforeUpstreamWaits: a relayed line reaches the
// client while the upstream holds back its next one, whether or not the
// line has the service's progress prefix.
func TestRouterStreamRelaysBeforeUpstreamWaits(t *testing.T) {
	for _, progress := range []string{
		`{"event":"progress","job":{"job_id":"job-1","seq":1,"event":"start","attempt":0}}`,
		`{"event":"progress"}`,
	} {
		t.Run(progress, func(t *testing.T) {
			g := newGate()
			held, _ := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", ndjson)
				_, _ = io.WriteString(w, progress+"\n")
				w.(http.Flusher).Flush()
				select {
				case <-g.release:
				case <-r.Context().Done():
					return
				}
				_, _ = io.WriteString(w, okLine+"\n")
			})
			_, srv := newTestRouter(t, fastSupervision(held))
			t.Cleanup(g.open)

			// The header, like the line, reaches the client only once the
			// router flushes, so the post itself runs under the deadline.
			type head struct {
				resp *http.Response
				body *bufio.Reader
				line string
				err  error
			}
			first := make(chan head, 1)
			go func() {
				buf, _ := json.Marshal(service.Request{Matrix: tinySpec})
				resp, err := http.Post(srv.URL+"/solve?stream=1", "application/json", bytes.NewReader(buf))
				if err != nil {
					first <- head{err: err}
					return
				}
				br := bufio.NewReader(resp.Body)
				line, err := br.ReadString('\n')
				first <- head{resp, br, line, err}
			}()
			var h head
			select {
			case h = <-first:
				if h.resp != nil {
					defer h.resp.Body.Close()
				}
				if h.err != nil || h.line != progress+"\n" {
					t.Fatalf("first line %q (%v), want %q", h.line, h.err, progress)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the relayed line waited for the upstream's next one")
			}
			g.open()
			rest, err := io.ReadAll(h.body)
			if err != nil || string(rest) != okLine+"\n" {
				t.Fatalf("rest of the stream %q (%v), want the result line", rest, err)
			}
		})
	}
}

// chunkReader returns data in the chunk sizes sizes cycles through.
type chunkReader struct {
	data  []byte
	sizes []byte
	k     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + int(c.sizes[c.k%len(c.sizes)])%64
	c.k++
	n = min(n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// repeatsEventKey reports whether the JSON object in line has more than one
// key that encoding/json would decode into streamLine.Event.
func repeatsEventKey(line []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	events := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return false
		}
		if k, _ := key.(string); strings.EqualFold(k, "event") {
			events++
		}
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			return false
		}
	}
	return events > 1
}

// FuzzRelayStream feeds arbitrary upstream bytes, in arbitrary chunk sizes,
// to relayStream and holds it to the classification json.Unmarshal gives
// each line: the lines before the first terminal one are relayed in order,
// once each; the terminal line is returned, not relayed; and a first line
// that is the service's overload error is saturation with nothing relayed.
//
// The one exception: a line that starts with the service's progress prefix
// but repeats the "event" key is relayed as progress without a decode,
// where json.Unmarshal would take the later key. The service's encoder
// writes the key once, so it cannot emit such a line.
func FuzzRelayStream(f *testing.F) {
	progress := `{"event":"progress","job":{"job_id":"job-1","seq":1,"event":"start","attempt":0}}` + "\n"
	f.Add([]byte(progress+progress+okLine+"\n"), []byte{3, 17, 0})
	f.Add([]byte(progress+`{"event":"prog`), []byte{63})
	f.Add([]byte(`{"event":"error","error":"service: queue full"}`+"\n"), []byte{5})
	f.Add([]byte(progress+okLine), []byte{1, 2})
	f.Add([]byte(`{"event":"progress","event":"result"}`+"\n"+okLine+"\n"), []byte{9})
	f.Add([]byte(strings.Repeat(progress, 60)+`{"event":"result","x":"`+strings.Repeat("0", 5000)+`"}`+"\n"), []byte{40, 63})
	f.Fuzz(func(t *testing.T, upstream, sizes []byte) {
		if len(sizes) == 0 {
			sizes = []byte{63}
		}
		rec := httptest.NewRecorder()
		rl := &relay{w: rec, stream: true}
		resp := &http.Response{Body: io.NopCloser(&chunkReader{data: upstream, sizes: sizes})}
		end, err := rl.relayStream(resp)

		var relayed []byte
		rest := upstream
		for first := true; len(rest) > 0; first = false {
			n := bytes.IndexByte(rest, '\n') + 1
			if n == 0 {
				n = len(rest)
			}
			line := rest[:n]
			rest = rest[n:]
			var sl streamLine
			_ = json.Unmarshal(line, &sl)
			terminal := sl.Event == "result" || sl.Event == "error"
			if terminal && bytes.HasPrefix(line, progressPrefix) {
				if !repeatsEventKey(line) {
					t.Fatalf("line %q: decoded as %q but relayed as progress", line, sl.Event)
				}
				sl, terminal = streamLine{Event: "progress"}, false
			}
			if first && sl.Event == "error" && sl.Error == service.ErrOverloaded.Error() {
				if err != nil || end.retryAfter != 1 || rec.Body.Len() != 0 {
					t.Fatalf("overload line %q: end %+v, err %v, relayed %q; want saturation, nothing relayed", line, end, err, rec.Body.Bytes())
				}
				return
			}
			if terminal {
				if err != nil || end.retryAfter != 0 || !bytes.Equal(end.last, line) {
					t.Fatalf("terminal line %q: end %+v, err %v", line, end, err)
				}
				if !bytes.Equal(rec.Body.Bytes(), relayed) {
					t.Fatalf("relayed %q, want %q", rec.Body.Bytes(), relayed)
				}
				return
			}
			relayed = append(relayed, line...)
		}
		if err == nil {
			t.Fatalf("a stream with no terminal line ended with %+v and no error", end)
		}
		if !bytes.Equal(rec.Body.Bytes(), relayed) {
			t.Fatalf("relayed %q, want %q", rec.Body.Bytes(), relayed)
		}
	})
}

// discardFlusher is a ResponseWriter that drops what it is sent and
// implements http.Flusher, so a relay under measurement takes its flush
// branch and allocates nothing of the writer's.
type discardFlusher struct{ h http.Header }

func (d discardFlusher) Header() http.Header         { return d.h }
func (d discardFlusher) Write(b []byte) (int, error) { return len(b), nil }
func (d discardFlusher) WriteHeader(int)             {}
func (d discardFlusher) Flush()                      {}

// TestRelayStreamAllocs pins the relay loop's allocation contract: a stream
// of 128 progress lines costs what one of 64 does, so relaying and
// flushing a progress line allocates nothing; only the set-up and the
// terminal line's decode do.
func TestRelayStreamAllocs(t *testing.T) {
	progress := `{"event":"progress","job":{"job_id":"job-1","seq":1,"event":"start","attempt":0}}` + "\n"
	w := discardFlusher{h: http.Header{}}
	relayAllocs := func(lines int) float64 {
		upstream := []byte(strings.Repeat(progress, lines) + okLine + "\n")
		return testing.AllocsPerRun(20, func() {
			rl := &relay{w: w, stream: true}
			resp := &http.Response{Body: io.NopCloser(&chunkReader{data: upstream, sizes: []byte{63, 200, 17}})}
			if end, err := rl.relayStream(resp); err != nil || end.last == nil {
				t.Fatalf("relay ended with %+v, %v; want the terminal line", end, err)
			}
		})
	}
	if at64, at128 := relayAllocs(64), relayAllocs(128); at128 != at64 {
		t.Errorf("relayStream: %v allocs over 64 progress lines, %v over 128; want equal", at64, at128)
	}
}
