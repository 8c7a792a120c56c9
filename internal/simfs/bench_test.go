package simfs

import (
	"fmt"
	"testing"

	"repro/internal/vtime"
)

func BenchmarkParallelCreate4096(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fs := New(Jugene())
		e := vtime.NewEngine()
		for t := 0; t < 4096; t++ {
			t := t
			e.Spawn(0, func(p *vtime.Proc) {
				v := fs.View(t, p)
				if fh, err := v.Create(fmt.Sprintf("d/f%05d", t)); err == nil {
					fh.Close()
				}
			})
		}
		e.Run()
	}
}

func BenchmarkMeteredWrite(b *testing.B) {
	fs := New(Jugene())
	e := vtime.NewEngine()
	done := make(chan struct{})
	e.Spawn(0, func(p *vtime.Proc) {
		v := fs.View(0, p)
		fh, _ := v.Create("d/x")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fh.WriteZeroAt(1<<20, int64(i)<<20)
		}
		close(done)
	})
	e.Run()
	<-done
}
