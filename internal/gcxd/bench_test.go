package gcxd

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcx/internal/xmark"
)

// BenchmarkServe is the serving cell of the paper reproduction: XMark Q6
// on a 256 KiB body through a real loopback HTTP server, at shards
// {0, 2} × closed-loop clients {1, 4}. ns/op is wall time per request
// across all clients; p50_ms and p99_ms are the client-observed
// time-to-last-byte percentiles an operator would put an SLO on. The
// gated serving numbers are gcxperf's serve-small and serve-stream; a
// remote gcxd is driven with any HTTP load generator (DESIGN.md §11).
func BenchmarkServe(b *testing.B) {
	doc, _, err := xmark.GenerateString(xmark.Config{TargetBytes: 256 << 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(Config{}))
	defer srv.Close()
	post := func(u string) error {
		resp, err := http.Post(u, "application/xml", strings.NewReader(doc))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
			return err
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("status %d", resp.StatusCode)
		case resp.Trailer.Get("X-Gcx-Error") != "":
			return fmt.Errorf("error trailer: %s", resp.Trailer.Get("X-Gcx-Error"))
		}
		return nil
	}
	for _, shards := range []int{0, 2} {
		u := srv.URL + "/query?query=" + url.QueryEscape(xmark.Queries["Q6"].Text)
		if shards > 0 {
			u += fmt.Sprintf("&shards=%d", shards)
		}
		for _, clients := range []int{1, 4} {
			b.Run(fmt.Sprintf("shards=%d/clients=%d", shards, clients), func(b *testing.B) {
				if err := post(u); err != nil { // compiles the query, opens a connection
					b.Fatal(err)
				}
				lat := make([]time.Duration, b.N) // lat[i] is written by whoever drew i
				var next atomic.Int64
				var wg sync.WaitGroup
				b.SetBytes(int64(len(doc)))
				b.ResetTimer()
				for range clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
							start := time.Now()
							if err := post(u); err != nil {
								b.Error(err)
								return
							}
							lat[i] = time.Since(start)
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				slices.Sort(lat)
				ms := func(p int) float64 { return float64(lat[(len(lat)-1)*p/100]) / float64(time.Millisecond) }
				b.ReportMetric(ms(50), "p50_ms")
				b.ReportMetric(ms(99), "p99_ms")
			})
		}
	}
}
