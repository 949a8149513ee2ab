/**
 * @file
 * Thread-safe LRU cache shared by the FHE key-switch hint caches and
 * the serving runtime's plaintext-encoding cache.
 *
 * Values are held as shared_ptr<const V>: an entry handed to a caller
 * stays valid after a concurrent eviction (the caller's shared_ptr
 * keeps it alive), so hot-path users never hold the cache lock while
 * consuming a value. Capacity 0 means unbounded — the scheme-level
 * hint caches default to that, preserving the pre-runtime behavior of
 * the std::map caches they replace.
 *
 * getOrCreate() runs the factory OUTSIDE the cache lock: factories in
 * this codebase reach into the shared thread pool (hint generation
 * parallelizes over limbs), and holding the cache lock across a pool
 * dispatch while a pool batch body queries the same cache is a
 * lock-order inversion — two application threads can deadlock.
 * Concurrent misses on the same key may therefore compute it more
 * than once; the first insert wins (put() semantics), which is safe
 * because every factory here is deterministic per key, so the racing
 * values are identical.
 *
 * Observability: a cache constructed with a name writes
 * "cache.<name>.{hits,misses,evictions}" counters and a
 * "cache.<name>.size" gauge in the metrics registry, where its
 * counts change. Same-name instances share those metrics: totals
 * keep a destroyed cache's hits, and the size gauge sums the live
 * caches' entries (a cache withdraws its entries when it is cleared
 * or destroyed). Unnamed caches record nothing. Hits and misses also
 * feed the active profile collector for per-job attribution.
 */
#ifndef F1_COMMON_LRU_CACHE_H
#define F1_COMMON_LRU_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace f1 {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache
{
  public:
    /**
     * @param capacity max entries; 0 = unbounded (never evicts).
     * @param name     non-empty records this instance into the
     *                 global metrics registry's
     *                 "cache.<name>.{hits,misses,evictions,size}".
     */
    explicit LruCache(size_t capacity = 0, const std::string &name = {})
        : capacity_(capacity)
    {
        if (!name.empty()) {
            auto &reg = obs::MetricsRegistry::global();
            hits_ = &reg.counter("cache." + name + ".hits");
            misses_ = &reg.counter("cache." + name + ".misses");
            evictions_ = &reg.counter("cache." + name + ".evictions");
            size_ = &reg.gauge("cache." + name + ".size");
        }
    }

    ~LruCache()
    {
        if (size_)
            size_->sub(map_.size());
    }

    LruCache(const LruCache &) = delete;
    LruCache &operator=(const LruCache &) = delete;

    /** Looks up `key`; returns nullptr on miss. Counts a hit/miss. */
    std::shared_ptr<const V>
    get(const K &key)
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            countMiss();
            return nullptr;
        }
        countHit();
        touch(it);
        return it->second.value;
    }

    /**
     * Inserts or refreshes `key`. Returns the cached pointer (the
     * existing one if another thread raced the insert first — the
     * first value wins, keeping all readers consistent).
     */
    std::shared_ptr<const V>
    put(const K &key, V value)
    {
        return putShared(key,
                         std::make_shared<const V>(std::move(value)));
    }

    std::shared_ptr<const V>
    putShared(const K &key, std::shared_ptr<const V> value)
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            touch(it);
            return it->second.value;
        }
        lru_.push_front(key);
        map_.emplace(key, Entry{std::move(value), lru_.begin()});
        if (size_)
            size_->add();
        evictOverflow();
        return map_.find(key)->second.value;
    }

    /**
     * Returns the entry for `key`, running `make()` to create it on a
     * miss. The factory executes outside the cache lock (see file
     * comment): racing misses on one key may each run it, and the
     * first completed insert wins — the factory must be deterministic
     * per key.
     */
    template <typename F>
    std::shared_ptr<const V>
    getOrCreate(const K &key, F &&make)
    {
        {
            std::lock_guard<std::mutex> lock(m_);
            auto it = map_.find(key);
            if (it != map_.end()) {
                countHit();
                touch(it);
                return it->second.value;
            }
            countMiss();
        }
        return putShared(key, std::make_shared<const V>(make()));
    }

    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(m_);
        return map_.size();
    }

    size_t capacity() const { return capacity_; }

    /** Changes the capacity, evicting LRU entries if now over. */
    void
    setCapacity(size_t capacity)
    {
        std::lock_guard<std::mutex> lock(m_);
        capacity_ = capacity;
        evictOverflow();
    }

    /** Drops all entries (outstanding shared_ptrs stay valid). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(m_);
        if (size_)
            size_->sub(map_.size());
        map_.clear();
        lru_.clear();
    }

  private:
    struct Entry
    {
        std::shared_ptr<const V> value;
        typename std::list<K>::iterator pos;
    };
    using Map = std::unordered_map<K, Entry, Hash>;

    /** Moves the entry to the front of the recency list. */
    void
    touch(typename Map::iterator it)
    {
        lru_.splice(lru_.begin(), lru_, it->second.pos);
    }

    void
    evictOverflow()
    {
        while (capacity_ != 0 && map_.size() > capacity_) {
            map_.erase(lru_.back());
            lru_.pop_back();
            if (evictions_) {
                evictions_->inc();
                size_->sub();
            }
        }
    }

    void
    countHit()
    {
        if (hits_)
            hits_->inc();
        obs::profileAdd(obs::ProfileCounter::kCacheHit);
    }

    void
    countMiss()
    {
        if (misses_)
            misses_->inc();
        obs::profileAdd(obs::ProfileCounter::kCacheMiss);
    }

    mutable std::mutex m_;
    size_t capacity_;
    std::list<K> lru_; //!< front = most recently used
    Map map_;

    // Registry metrics of a named cache; all null for an unnamed one.
    obs::Counter *hits_ = nullptr;
    obs::Counter *misses_ = nullptr;
    obs::Counter *evictions_ = nullptr;
    obs::Gauge *size_ = nullptr;
};

} // namespace f1

#endif // F1_COMMON_LRU_CACHE_H
