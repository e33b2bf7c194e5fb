package main

import "testing"

func TestCheckBacklogFailsOnGrowingQueue(t *testing.T) {
	var s []int64
	for i := 0; i < 1000; i++ {
		s = append(s, int64(i)) // 1000 ev/s offered, queue grows without bound
	}
	if err := checkBacklog(s, 1000, 1); err == nil {
		t.Fatal("a queue growing across the run was accepted")
	}
}

func TestCheckBacklogAcceptsSteadyQueue(t *testing.T) {
	var s []int64
	for i := 0; i < 1000; i++ {
		s = append(s, int64(i%7)*20) // bursts of fan-out messages that drain
	}
	if err := checkBacklog(s, 1000, 20); err != nil {
		t.Fatal(err)
	}
}
