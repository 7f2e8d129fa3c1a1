package dispatch_test

import (
	"context"
	"fmt"
	"log"

	"arlo/internal/dispatch"
	"arlo/internal/queue"
)

// ExampleRequestScheduler_DispatchCtx replays the paper's Fig. 5 example: a
// length-200 request skips the congested 256-runtime head (54/60 >= the
// 0.85 threshold) and is demoted to the 512 head (28/48 < 0.765).
func ExampleRequestScheduler_DispatchCtx() {
	ml, err := queue.NewMultiLevel([]int{64, 128, 256, 512})
	if err != nil {
		log.Fatal(err)
	}
	instances := []*queue.Instance{
		queue.NewInstance(30, 2, 54, 60),
		queue.NewInstance(31, 2, 58, 60),
		queue.NewInstance(40, 3, 28, 48),
		queue.NewInstance(41, 3, 40, 48),
	}
	for _, in := range instances {
		if err := ml.Add(in); err != nil {
			log.Fatal(err)
		}
	}
	rs, err := dispatch.NewRequestSchedulerParams(ml, 0.85, 0.9, 3)
	if err != nil {
		log.Fatal(err)
	}
	in, _, err := rs.DispatchCtx(context.Background(), 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance %d (max_length %d), outstanding now %d\n",
		in.ID, ml.MaxLength(in.Runtime), in.Outstanding())
	// Output:
	// instance 40 (max_length 512), outstanding now 29
}
