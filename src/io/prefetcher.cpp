#include "io/prefetcher.hpp"

namespace clio::io {

SequentialPrefetcher::SequentialPrefetcher(PrefetchConfig config)
    : config_(config) {}

PrefetchRange SequentialPrefetcher::propose(FileId file, std::uint64_t page,
                                            std::size_t pages) {
  if (pages == 0) return {};
  StreamState& st = streams_[file];
  if (st.last_page != UINT64_MAX && page == st.last_page + 1) {
    st.streak += pages;
  } else if (page == st.last_page) {
    // A repeated touch of the last page neither extends nor breaks the
    // streak; the pages after it do extend it.
    st.streak += pages - 1;
  } else {
    st.streak = pages;
  }
  st.last_page = page + pages - 1;
  if (config_.window == 0 || st.streak < config_.min_streak) return {};
  return PrefetchRange{st.last_page + 1, config_.window};
}

void SequentialPrefetcher::forget(FileId file) { streams_.erase(file); }

void SequentialPrefetcher::reset() { streams_.clear(); }

}  // namespace clio::io
