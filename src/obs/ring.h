/**
 * @file
 * The one lock-free event ring under every telemetry stream: the
 * flight recorder's serving lifecycle (obs/eventlog.h) and the span
 * log's op spans and scheduler instants (obs/trace.h) are payload
 * codecs over a SeqlockRing.
 *
 * Each slot is a seqlock: a ticket (2*seq+1 while its writer stores,
 * 2*seq once committed) over ATOMIC payload words, so a reader racing
 * a writer sees at worst a discarded entry, never undefined
 * behaviour. Writers never block: a push claims the next sequence
 * number with one relaxed fetch_add and its slot with one CAS on the
 * ticket. A writer that finds its slot held by another writer (it was
 * lapped while that writer was stopped mid-store) gives its entry up
 * rather than interleave stores with it, so no committed ticket ever
 * covers words from two entries.
 *
 * Loss is counted where it happens: a push that returns a sequence
 * number above capacity() cost one entry (the oldest, or its own when
 * it gave up), and read() returns how many entries it discarded as
 * torn. dropped() sums both over the ring's life.
 */
#ifndef F1_OBS_RING_H
#define F1_OBS_RING_H

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace f1::obs {

template <size_t Words>
class SeqlockRing
{
  public:
    using Payload = std::array<uint64_t, Words>;

    explicit SeqlockRing(size_t capacity)
        : cap_(std::max<size_t>(capacity, 1)),
          slots_(std::make_unique<Slot[]>(cap_))
    {
    }
    SeqlockRing(const SeqlockRing &) = delete;
    SeqlockRing &operator=(const SeqlockRing &) = delete;

    /** Appends one entry; lock-free from any thread. Returns its
     *  1-based sequence number. */
    uint64_t
    push(const Payload &p)
    {
        const uint64_t seq =
            next_.fetch_add(1, std::memory_order_relaxed) + 1;
        Slot &s = slots_[(seq - 1) % cap_];
        uint64_t t = s.ticket.load(std::memory_order_relaxed);
        if ((t & 1) != 0 || t > 2 * seq ||
            !s.ticket.compare_exchange_strong(
                t, 2 * seq + 1, std::memory_order_relaxed))
            return seq; // lapped: readers count the entry as lost
        // Release stores: a reader that loads any of these words (with
        // acquire) is guaranteed to see the odd ticket on its recheck.
        for (size_t i = 0; i < Words; ++i)
            s.w[i].store(p[i], std::memory_order_release);
        s.ticket.store(2 * seq, std::memory_order_release);
        return seq;
    }

    /**
     * Calls fn(seq, payload) for every committed entry with sequence
     * number in (after, upTo], oldest first. Entries already lapped
     * when the read starts are skipped (wraparound counts them); a
     * slot caught mid-write is retried a few times and then discarded
     * as torn. Returns the number of entries discarded as torn.
     */
    template <class Fn>
    uint64_t
    read(uint64_t after, uint64_t upTo, Fn &&fn) const
    {
        uint64_t torn = 0;
        upTo = std::min(upTo, recorded());
        const uint64_t oldest = upTo > cap_ ? upTo - cap_ : 0;
        for (uint64_t seq = std::max(after, oldest) + 1; seq <= upTo;
             ++seq) {
            const Slot &s = slots_[(seq - 1) % cap_];
            int attempt = 0;
            for (; attempt < kAttempts; ++attempt) {
                const uint64_t t1 =
                    s.ticket.load(std::memory_order_acquire);
                if (t1 > 2 * seq + 1)
                    break; // lapped: wraparound counts it
                if (t1 != 2 * seq)
                    continue; // not committed yet
                Payload p;
                for (size_t i = 0; i < Words; ++i)
                    p[i] = s.w[i].load(std::memory_order_acquire);
                if (s.ticket.load(std::memory_order_relaxed) == t1) {
                    fn(seq, p);
                    break;
                }
            }
            if (attempt == kAttempts)
                ++torn;
        }
        torn_.fetch_add(torn, std::memory_order_relaxed);
        return torn;
    }

    /** Entries ever pushed: the newest sequence number. */
    uint64_t
    recorded() const
    {
        return next_.load(std::memory_order_relaxed);
    }

    /** Entries lost to wraparound plus entries reads discarded as
     *  torn, over the ring's life. The torn count is cumulative over
     *  all reads, so one entry missed by two reads counts twice. */
    uint64_t
    dropped() const
    {
        const uint64_t total = recorded();
        return (total > cap_ ? total - cap_ : 0) +
               torn_.load(std::memory_order_relaxed);
    }

    size_t capacity() const { return cap_; }

  private:
    /** Reads of one entry before it is discarded as torn. */
    static constexpr int kAttempts = 4;

    struct Slot
    {
        std::atomic<uint64_t> ticket{0};
        std::atomic<uint64_t> w[Words]{};
    };

    const size_t cap_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<uint64_t> next_{0};
    mutable std::atomic<uint64_t> torn_{0};
};

} // namespace f1::obs

#endif // F1_OBS_RING_H
