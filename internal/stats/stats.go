// Package stats records run statistics: the buffer plot series of the
// paper's Figures 3 and 4 (tokens processed → nodes buffered) and the
// high watermarks reported in Figure 5.
package stats

// Point is one sample of the buffer plot.
type Point struct {
	// Token is the number of input tokens processed so far (x-axis).
	Token int64
	// Nodes is the number of buffered XML nodes after processing the
	// token (y-axis).
	Nodes int64
	// Bytes is the estimated buffered size at the sample.
	Bytes int64
}

// Recorder samples the buffer size per processed token.
type Recorder struct {
	// Every is the sampling interval in tokens; 1 records every token
	// (the paper's Fig. 3), larger values bound the series size for
	// multi-million-token runs (Fig. 4).
	Every int64
	// Points is the recorded series.
	Points []Point

	count int64
}

// NewRecorder returns a recorder sampling every n tokens (n < 1 is
// treated as 1).
func NewRecorder(n int64) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{Every: n}
}

// Record adds a sample if the token index falls on the sampling grid.
func (r *Recorder) Record(token, nodes, bytes int64) {
	r.count++
	if r.count%r.Every != 0 {
		return
	}
	r.Points = append(r.Points, Point{Token: token, Nodes: nodes, Bytes: bytes})
}

// PeakNodes returns the maximum recorded node count.
func (r *Recorder) PeakNodes() int64 {
	var peak int64
	for _, p := range r.Points {
		if p.Nodes > peak {
			peak = p.Nodes
		}
	}
	return peak
}
