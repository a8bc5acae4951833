package codec

// The byte-at-a-time kernels the word-wise ones replaced, kept as the
// references FuzzCodecKernels holds them to.

// refDiffRanges is DiffRanges one byte a step.
func refDiffRanges(base, cur []byte, joinGap int) []Range {
	if len(base) != len(cur) {
		return []Range{{Off: 0, Len: len(cur)}}
	}
	var out []Range
	i := 0
	for i < len(cur) {
		if cur[i] == base[i] {
			i++
			continue
		}
		j := i + 1
		gap := 0
		for j < len(cur) {
			if cur[j] != base[j] {
				gap = 0
				j++
				continue
			}
			if gap+1 >= joinGap {
				break
			}
			gap++
			j++
		}
		out = append(out, Range{Off: i, Len: j - gap - i})
		i = j
	}
	return out
}

// refByteRunLen is byteRunLen one byte a step.
func refByteRunLen(src []byte) int {
	total := 0
	i := 0
	lit := 0
	flushLit := func() {
		for lit > 0 {
			n := lit
			if n > maxLiteral {
				n = maxLiteral
			}
			total += 1 + n
			lit -= n
		}
	}
	for i < len(src) {
		j := i + 1
		for j < len(src) && src[j] == src[i] {
			j++
		}
		run := j - i
		if run >= minRun {
			flushLit()
			for run > 0 {
				n := run
				if n > maxRun {
					n = maxRun
				}
				if n < minRun {
					total += 2 * n
					run = 0
					continue
				}
				total += 2
				run -= n
			}
		} else {
			lit += run
		}
		i = j
	}
	flushLit()
	return total
}
