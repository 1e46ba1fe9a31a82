// Package stats records run statistics: the buffer plot series of the
// paper's Figures 3 and 4 (tokens delivered → nodes buffered) and the
// high watermarks reported in Figure 5.
package stats

// Point is one sample of the buffer plot.
type Point struct {
	// Token is the number of input tokens delivered so far (x-axis);
	// in a sharded run's merged series, counted over the chunks before
	// it too.
	Token int64
	// Nodes is the number of buffered XML nodes after processing the
	// token (y-axis).
	Nodes int64
	// Bytes is the estimated memory held at the sample: the buffered
	// tree and the join's table, the quantity PeakBufferedBytes is the
	// high watermark of.
	Bytes int64
}
