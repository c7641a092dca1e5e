// Sparse LU factorization of a simplex basis, with Forrest–Tomlin updates.
//
// `factorize` runs a Markowitz-pivoted Gaussian elimination on the basis
// matrix B (columns of A for basic structural variables, implicit unit
// columns for basic slacks): each pivot minimizes the fill-in bound
// (rowcount-1)*(colcount-1) among entries that pass a relative stability
// threshold. Slack-heavy floorplanning bases are mostly singleton columns,
// which Markowitz eliminates first with zero fill, so the factor stays near
// the size of the basic structural columns.
//
// Cost model: factorize takes time proportional to B's nonzeros plus the
// arithmetic of its genuine eliminations. A pivot whose column has no other
// active entry (every slack pivot) computes nothing, so it rewrites no
// other column; the pivot row's entries just die in place. A done row marks
// its entries dead, a per-column live count drives the buckets and the
// Markowitz cost, and candidate scans, L multipliers and real eliminations
// skip dead entries in the order they always had (a candidate scan
// compacts them away). The pivot row's value in a column no elimination
// has rewritten yet is found in O(1) through the index stored with its
// row-pattern entry. Pivot choices and arithmetic are those of eager
// elimination, so L and U are bit-identical to it. Columns and row
// patterns live in two pooled arrays of a member workspace, so the active
// submatrix costs a few allocations, and refactorizations reuse them.
//
// Between refactorizations the basis changes one column at a time.
// `updateColumn` applies the Forrest–Tomlin update: the spiked column
// (captured during the entering column's FTRAN, after the L and row-eta
// passes but before the U solve) replaces a column of U, the spiked pivot
// is cyclically permuted to the end of the elimination order, and the
// resulting row spike is eliminated into a short list of recorded row
// operations. Unlike the product-form eta file this modifies U in place, so
// FTRAN/BTRAN cost grows only with genuine fill. Refactorization triggers:
// a failed stability check, factor fill growth (`shouldRefactorize`), and
// whatever update-count cap the simplex layers on top — short solves (warm
// branch & bound reoptimizations) run refactorization-free.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/sparse/csc.hpp"

namespace rfp::lp::sparse {

/// Sparse vector for the hyper-sparse solve paths: `val` is a full dense
/// array and `idx` lists the positions that may be nonzero — everything
/// outside `idx` is exactly 0.0. Callers iterate `idx`, never the full
/// length, and the invariant is maintained by zeroing only listed entries.
/// Duplicate positions in `idx` are tolerated by the solves (the values are
/// accumulated in `val`, `idx` is only a superset of the support).
struct IndexedVector {
  std::vector<double> val;
  std::vector<int> idx;

  /// Resets to an all-zero vector of dimension `m` (full reallocation).
  void reset(int m) {
    val.assign(static_cast<std::size_t>(m), 0.0);
    idx.clear();
  }
  /// Zeros the listed entries; O(nnz), preserving the invariant.
  void clear() {
    for (const int p : idx) val[static_cast<std::size_t>(p)] = 0.0;
    idx.clear();
  }
  /// Sets entry `p` to `x` and records it. `p` must not already be listed.
  void set(int p, double x) {
    val[static_cast<std::size_t>(p)] = x;
    idx.push_back(p);
  }
  void copyFrom(const IndexedVector& o) {
    clear();
    if (val.size() != o.val.size()) val.assign(o.val.size(), 0.0);
    idx = o.idx;
    for (const int p : idx) val[static_cast<std::size_t>(p)] = o.val[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] int nnz() const noexcept { return static_cast<int>(idx.size()); }
};

class BasisLu {
 public:
  /// Factorizes the basis selected by `basic` (size A.rows): entries
  /// < A.cols are structural columns of A, A.cols + i is the slack of row i.
  /// Discards any existing factorization and update history. Returns false
  /// when the basis is singular; `deficientPositions()` / `unpivotedRows()`
  /// then describe a repair: replacing the variable at deficient position k
  /// with the slack of unpivoted row k yields a nonsingular basis.
  bool factorize(const CscMatrix& a, const std::vector<int>& basic);

  [[nodiscard]] const std::vector<int>& deficientPositions() const noexcept {
    return deficient_pos_;
  }
  [[nodiscard]] const std::vector<int>& unpivotedRows() const noexcept {
    return unpivoted_rows_;
  }

  /// Partially solved entering column captured during `ftran`, consumed by
  /// `updateColumn`. Opaque to callers.
  struct Spike {
    std::vector<double> values;  ///< slot space, size rows(); zero outside idx when sparse
    std::vector<int> idx;        ///< support when captured by a hyper-sparse ftran
    bool sparse = false;
  };

  /// v := B^-1 v. Input indexed by rows, output by basis positions. When
  /// `spike` is non-null it captures the state `updateColumn` needs to apply
  /// a Forrest–Tomlin update for this column.
  void ftran(std::vector<double>& v, Spike* spike = nullptr) const;
  /// v := B^-T v. Input indexed by basis positions, output by rows.
  void btran(std::vector<double>& v) const;

  /// Hyper-sparse v := B^-1 v. Gilbert–Peierls reachability over the L/U
  /// nonzero graph bounds the work by the result's support instead of m;
  /// dense inputs or large reaches fall back to the dense sweep (the result
  /// is identical either way, `v.idx` is rebuilt to match). Not thread-safe
  /// across concurrent solves on one BasisLu (shared DFS scratch).
  void ftranSparse(IndexedVector& v, Spike* spike = nullptr) const;
  /// Hyper-sparse v := B^-T v; same contract as `ftranSparse`.
  void btranSparse(IndexedVector& v) const;

  /// Which path each solve actually took, cumulative since construction.
  struct SolveStats {
    long ftran_sparse = 0;
    long ftran_dense = 0;
    long btran_sparse = 0;
    long btran_dense = 0;
  };
  [[nodiscard]] const SolveStats& solveStats() const noexcept { return stats_; }

  /// Forrest–Tomlin update: the basis column at `position` is replaced by
  /// the entering column whose FTRAN produced `spike`. Returns false when
  /// the update would be numerically unstable — the factorization is then
  /// spoiled and the caller must refactorize before the next solve.
  [[nodiscard]] bool updateColumn(int position, const Spike& spike);

  /// Updates applied since the last factorize.
  [[nodiscard]] int updateCount() const noexcept { return update_count_; }

  /// True when accumulated update fill has outgrown the fresh factors
  /// enough that refactorizing would pay for itself.
  [[nodiscard]] bool shouldRefactorize() const noexcept {
    return update_count_ > 0 &&
           static_cast<double>(u_nnz_ + static_cast<long>(ft_src_.size())) >
               kFtFillFactor * static_cast<double>(base_nnz_ < 16 ? 16 : base_nnz_);
  }

  [[nodiscard]] int rows() const noexcept { return m_; }
  [[nodiscard]] long factorNonzeros() const noexcept {
    return static_cast<long>(l_row_.size()) + u_nnz_ + m_ +
           static_cast<long>(ft_src_.size());
  }

 private:
  struct UEntry {
    int slot;
    double val;
  };

  static constexpr double kAbsPivotTol = 1e-11;  ///< reject pivots smaller than this
  static constexpr double kRelPivotTol = 0.05;   ///< pivot must be >= rel * max|column|
  static constexpr int kSearchColumns = 8;       ///< Markowitz candidate columns per pivot
  static constexpr double kDropTol = 1e-13;      ///< fill-in below this is discarded
  /// Forrest–Tomlin stability: the updated diagonal must be at least this
  /// fraction of the spike's largest entry, or the update is refused and
  /// the caller must refactorize.
  static constexpr double kFtStabilityTol = 1e-9;
  /// Factor-growth refactorization hint: `shouldRefactorize` fires when
  /// the updated factors hold this many times the fresh factor's nonzeros.
  static constexpr double kFtFillFactor = 3.0;
  /// Hyper-sparse solves take the graph-driven path only while the input
  /// support stays below this fraction of m (else the reachability setup
  /// costs more than the dense sweep it avoids)...
  static constexpr double kHyperInputDensity = 0.10;
  /// ...and while the predicted result support (the DFS reach) stays below
  /// this fraction of m; past it the solve falls back to the dense sweep.
  static constexpr double kHyperReachDensity = 0.30;

  int m_ = 0;

  // L from the factorization: row operations per elimination step, applied
  // ascending in ftran (row space). Static between refactorizations.
  std::vector<int> l_start_, l_row_;
  std::vector<double> l_val_;

  // Pivots live in stable "slots" (slot k = elimination step k of the last
  // factorize); Forrest–Tomlin updates reorder slots without renumbering.
  std::vector<int> pivot_row_;   ///< slot -> matrix row
  std::vector<int> pivot_pos_;   ///< slot -> basis position
  std::vector<double> diag_;     ///< slot -> U diagonal
  std::vector<int> order_;       ///< elimination order as a list of slots
  std::vector<int> order_pos_;   ///< slot -> index in order_
  std::vector<int> pos_to_slot_; ///< basis position -> slot

  // U off-diagonals, kept both row-wise and column-wise (updates edit both).
  std::vector<std::vector<UEntry>> u_rows_;  ///< per row slot: (col slot, val)
  std::vector<std::vector<UEntry>> u_cols_;  ///< per col slot: (row slot, val)
  long u_nnz_ = 0;
  long base_nnz_ = 0;  ///< L+U nonzeros right after factorize (growth baseline)

  // Forrest–Tomlin row operations, applied in order between the L pass and
  // the U solve in ftran (transposed, newest first, in btran).
  std::vector<int> ft_tgt_, ft_src_;
  std::vector<double> ft_mult_;
  int update_count_ = 0;

  std::vector<int> deficient_pos_, unpivoted_rows_;

  // Active submatrix while `factorize` runs; kept between calls so that
  // refactorizations reuse its allocations.
  struct ActiveEntry {
    int row;
    double val;
  };
  struct PatternEntry {
    int pos;  ///< basis position (column) holding an entry in this row
    int at;   ///< the entry's index in that column while it is pristine
  };
  struct FactorWorkspace {
    /// Per position: entries in order, in segments of one pool. Entries of
    /// done rows are dead and linger until a rewrite or a candidate scan
    /// compacts the column; a rewrite that outgrows its segment moves the
    /// column to the pool's end.
    std::vector<ActiveEntry> col_pool;
    std::vector<int> col_beg, col_len, col_cap;
    /// Per row: columns that held an entry there, in arrival order, in
    /// segments of one pool (a full segment moves to the pool's end). May
    /// list a column whose entry was cancelled, or list it twice when that
    /// entry was later refilled.
    std::vector<PatternEntry> row_pool;
    std::vector<int> row_beg, row_len, row_cap;
    /// Candidate columns by live count; entries go stale when the count
    /// changes (the column is re-pushed at the new count) and are skipped.
    std::vector<std::vector<int>> bucket;
    std::vector<int> live;    ///< per position: entries in active rows
    std::vector<int> rcount;  ///< per row: entries in active columns
    std::vector<int> visit;   ///< per position: last step that visited it
    std::vector<char> row_done, col_done;
    /// Per position: no elimination has rewritten or compacted the column,
    /// so PatternEntry::at still indexes it.
    std::vector<char> pristine;
    /// Per position: holds an entry at or below drop_tol, which the first
    /// rewrite drops, so even a no-arithmetic pivot must rewrite it.
    std::vector<char> tiny;
    std::vector<double> wval;  ///< scatter values for a column rewrite
    std::vector<int> wstamp, touched, popped;
    /// U rows in basis-position column references, remapped to slots once
    /// the elimination finishes.
    std::vector<int> tu_start, tu_pos;
    std::vector<double> tu_val;
  };
  FactorWorkspace fw_;

  // Hyper-sparse reachability structures, static between refactorizations.
  std::vector<int> row_to_slot_;         ///< matrix row -> slot pivoting it
  std::vector<int> lt_start_, lt_slot_;  ///< row -> slots whose L column hits it

  mutable std::vector<double> work_, work2_;  ///< solve scratch (size m)
  std::vector<double> upd_val_;               ///< update scratch (size m)
  std::vector<char> upd_mark_;

  // Hyper-sparse solve scratch: `reach_` collects the slots the DFS proves
  // reachable, `mark_` their membership, `ywork_` slot-space values (zero
  // outside the current reach). Mutable like `work_`: solves are logically
  // const but share scratch, so one BasisLu serves one thread at a time.
  mutable std::vector<int> reach_;
  mutable std::vector<char> mark_;
  mutable std::vector<double> ywork_;
  mutable SolveStats stats_;

  /// Learned gate on the hyper-sparse attempt. On bases whose B^-1 is
  /// effectively dense, every sparse-eligible input pays the structural BFS
  /// only to overflow the reach cap and re-solve densely — pure overhead on
  /// every solve. The gate tracks an EMA of attempt success per direction
  /// and, while success is rare, sends eligible inputs straight to the dense
  /// sweep, probing every 16th call so a basis drifting back toward
  /// sparsity reopens the fast path.
  struct HyperGate {
    double success_ema = 1.0;  ///< optimistic: attempt until proven dense
    unsigned tick = 0;
    [[nodiscard]] bool skip() noexcept {
      return success_ema < 0.25 && (tick++ % 16) != 0;
    }
    void record(bool success) noexcept {
      success_ema = 0.9 * success_ema + (success ? 0.1 : 0.0);
    }
  };
  mutable HyperGate ftran_gate_, btran_gate_;

  [[nodiscard]] bool hyperEligible(std::size_t input_nnz) const noexcept;
  [[nodiscard]] long reachCap() const noexcept;
  void rebuildIndex(IndexedVector& v) const;
};

}  // namespace rfp::lp::sparse
