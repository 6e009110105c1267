package daemon

import (
	"testing"

	"adjstream/internal/serve"
)

// The -queue flag and serve.Config.Queue read 0 and negative values the
// other way round; ServeQueue is the one place that translates them.
func TestServeQueueMatchesFlagDoc(t *testing.T) {
	for _, c := range []struct {
		flag, want int
	}{
		{-1, 6}, // default: 2× workers
		{-5, 6},
		{0, 0}, // reject immediately
		{1, 1},
		{7, 7},
	} {
		srv := serve.New(serve.NewCatalog(), serve.Config{Workers: 3, Queue: ServeQueue(c.flag)})
		if got := srv.Pool().Queue(); got != c.want {
			t.Errorf("-queue %d: pool queue %d, want %d", c.flag, got, c.want)
		}
	}
}
