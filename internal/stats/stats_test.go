package stats

import "testing"

func TestRecorderSamplesEveryN(t *testing.T) {
	r := NewRecorder(3)
	for i := int64(1); i <= 10; i++ {
		r.Record(i, i*2, i*100)
	}
	if len(r.Points) != 3 {
		t.Fatalf("got %d points, want 3", len(r.Points))
	}
	if r.Points[0].Token != 3 || r.Points[1].Token != 6 || r.Points[2].Token != 9 {
		t.Fatalf("sample grid wrong: %+v", r.Points)
	}
	if r.Points[2].Nodes != 18 || r.Points[2].Bytes != 900 {
		t.Fatalf("sample values wrong: %+v", r.Points[2])
	}
}

func TestRecorderDefaultInterval(t *testing.T) {
	r := NewRecorder(0)
	if r.Every != 1 {
		t.Fatalf("Every = %d, want 1", r.Every)
	}
	r.Record(1, 5, 0)
	r.Record(2, 7, 0)
	if len(r.Points) != 2 {
		t.Fatal("interval 1 must record every token")
	}
}

func TestPeakNodes(t *testing.T) {
	r := NewRecorder(1)
	for _, n := range []int64{1, 5, 3, 9, 2} {
		r.Record(n, n, 0)
	}
	if r.PeakNodes() != 9 {
		t.Fatalf("PeakNodes = %d", r.PeakNodes())
	}
	empty := NewRecorder(1)
	if empty.PeakNodes() != 0 {
		t.Fatal("empty recorder peak should be 0")
	}
}
