package planner

import "slices"

// placements enumerates per-server take vectors for a stage of r devices
// using the three policies of §IV-B, deduplicated, writing them into the
// buffers of takes. On flat clusters (one GPU per server) all policies
// coincide, collapsing the placement space.
func (s *search) placements(takes *[3]alloc, used alloc, r int) []alloc {
	if r <= 0 || r > s.freeTotal(used) {
		return nil
	}
	n := 0
	for _, policy := range [...]func(dst, used alloc, r int) alloc{s.freshFirst, s.appendFirst, s.scatterFirst} {
		t := policy(takes[n], used, r)
		if t == nil || slices.ContainsFunc(takes[:n], func(u alloc) bool { return slices.Equal(u, t) }) {
			continue
		}
		takes[n] = t
		n++
	}
	return takes[:n]
}

// resetTake returns dst cleared to an empty take vector, allocating one when
// dst is too short.
func (s *search) resetTake(dst alloc) alloc {
	if cap(dst) < s.c.Servers {
		return make(alloc, s.c.Servers)
	}
	dst = dst[:s.c.Servers]
	clear(dst)
	return dst
}

// greedyTake fills servers in policy order into dst: first the servers of
// the preferred kind (fresh, or already hosting a stage), then the rest,
// each kind in ascending server order. It returns nil when fewer than r
// devices are free.
func (s *search) greedyTake(dst, used alloc, r int, preferFresh bool) alloc {
	take := s.resetTake(dst)
	for pass := 0; pass < 2; pass++ {
		fresh := preferFresh == (pass == 0)
		for srv := 0; srv < len(take) && r > 0; srv++ {
			if (used[srv] == 0) != fresh {
				continue
			}
			k := min(s.c.GPUsPerServer-used[srv], r)
			take[srv] = k
			r -= k
		}
	}
	if r > 0 {
		return nil
	}
	return take
}

// freshFirst allocates from completely unused machines first, keeping the
// stage on as few machines as possible to exploit NVLink for intra-stage
// gradient sync.
func (s *search) freshFirst(dst, used alloc, r int) alloc {
	return s.greedyTake(dst, used, r, true)
}

// appendFirst allocates from machines that already host earlier stages,
// reducing fragmentation.
func (s *search) appendFirst(dst, used alloc, r int) alloc {
	return s.greedyTake(dst, used, r, false)
}

// scatterFirst spreads the stage evenly across machines with free devices:
// one device per machine round-robin.
func (s *search) scatterFirst(dst, used alloc, r int) alloc {
	take := s.resetTake(dst)
	remaining := r
	for remaining > 0 {
		progress := false
		for srv := 0; srv < s.c.Servers && remaining > 0; srv++ {
			if used[srv]+take[srv] < s.c.GPUsPerServer {
				take[srv]++
				remaining--
				progress = true
			}
		}
		if !progress {
			return nil
		}
	}
	return take
}
