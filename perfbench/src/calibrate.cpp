#include "calibrate.h"

#include <sys/mman.h>
#include <time.h>

#include <barrier>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kTableWords = std::size_t{1} << 21;    ///< 8 MB of u32
constexpr std::size_t kAccumulators = std::size_t{1} << 17;  ///< 512 KB of u32
constexpr std::size_t kSteps = std::size_t{1} << 22;

/// Zeroed memory straight from the kernel, not the heap: a calibration
/// leaves the allocator's arenas and its mmap threshold as they were, so
/// it moves neither the resident set nor how the library allocates.
class Mapping {
public:
    explicit Mapping(std::size_t words)
        : bytes_(words * sizeof(std::uint32_t)),
          data_(mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0)) {
        if (data_ == MAP_FAILED) throw std::bad_alloc();
    }
    ~Mapping() { munmap(data_, bytes_); }
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;

    std::uint32_t* words() { return static_cast<std::uint32_t*>(data_); }

private:
    std::size_t bytes_;
    void* data_;
};

double thread_cpu_ms() {
    timespec t{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
    return 1e3 * static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_nsec);
}

std::uint64_t next(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

}  // namespace

std::vector<double> calibration_ms(int reps) {
    const auto n = static_cast<std::size_t>(reps);
    std::vector<std::vector<double>> per_thread(kThreads, std::vector<double>(n, 0.0));
    std::barrier sync(static_cast<std::ptrdiff_t>(kThreads));
    std::vector<std::uint32_t> sink(kThreads, 0);
    {
        std::vector<std::jthread> pool;
        for (std::size_t t = 0; t < kThreads; ++t) {
            pool.emplace_back([&, t] {
                std::uint64_t x = 0x9E3779B97F4A7C15ULL + t;
                Mapping table_map(kTableWords);
                Mapping acc_map(kAccumulators);
                std::uint32_t* table = table_map.words();
                std::uint32_t* acc = acc_map.words();
                for (std::size_t i = 0; i < kTableWords; ++i) {
                    table[i] = static_cast<std::uint32_t>(next(x));
                }
                for (std::size_t r = 0; r < n; ++r) {
                    sync.arrive_and_wait();
                    const double start = thread_cpu_ms();
                    for (std::size_t i = 0; i < kSteps; ++i) {
                        const std::uint64_t h = next(x);
                        const std::uint32_t v = table[h & (kTableWords - 1)];
                        acc[(v ^ (h >> 32)) & (kAccumulators - 1)] +=
                            static_cast<std::uint32_t>(h >> 56);
                    }
                    per_thread[t][r] = thread_cpu_ms() - start;
                }
                // Read the accumulators so the loop is not optimised away.
                for (std::size_t i = 0; i < kAccumulators; ++i) sink[t] ^= acc[i];
            });
        }
    }
    std::vector<double> rep_means(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
        for (const auto& p : per_thread) rep_means[r] += p[r] / static_cast<double>(kThreads);
    }
    volatile std::uint32_t keep = 0;
    for (std::uint32_t s : sink) keep = keep ^ s;
    return rep_means;
}

}  // namespace perfbench
