#include "la/dense.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "blaslite/blas.hpp"

namespace la {

void DenseMatrix::matvec(std::span<const double> x, std::span<double> y) const {
    assert(x.size() == cols_ && y.size() == rows_);
    blaslite::dgemv(1.0, data_.data(), cols_, rows_, cols_, x.data(), 0.0, y.data());
}

DenseMatrix DenseMatrix::transposed() const {
    DenseMatrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
}

double DenseMatrix::max_diff(const DenseMatrix& other) const {
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    double m = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i)
        m = std::max(m, std::abs(data_[i] - other.data_[i]));
    return m;
}

double DenseMatrix::symmetry_defect() const {
    assert(rows_ == cols_);
    double m = 0.0;
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = i + 1; j < cols_; ++j)
            m = std::max(m, std::abs((*this)(i, j) - (*this)(j, i)));
    return m;
}

DenseMatrix matmul(const DenseMatrix& a, const DenseMatrix& b) {
    assert(a.cols() == b.rows());
    DenseMatrix c(a.rows(), b.cols());
    blaslite::dgemm(1.0, a.data(), a.cols(), b.data(), b.cols(), 0.0, c.data(), c.cols(),
                    a.rows(), b.cols(), a.cols());
    return c;
}

bool lu_factor(DenseMatrix& a, std::vector<std::size_t>& piv) {
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    piv.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t p = k;
        double best = std::abs(a(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            if (std::abs(a(i, k)) > best) {
                best = std::abs(a(i, k));
                p = i;
            }
        }
        if (best == 0.0) return false;
        piv[k] = p;
        if (p != k)
            for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
        const double inv = 1.0 / a(k, k);
        for (std::size_t i = k + 1; i < n; ++i) {
            const double lik = a(i, k) * inv;
            a(i, k) = lik;
            for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= lik * a(k, j);
        }
    }
    return true;
}

void lu_solve(const DenseMatrix& lu, const std::vector<std::size_t>& piv, std::span<double> b) {
    const std::size_t n = lu.rows();
    assert(b.size() == n && piv.size() == n);
    for (std::size_t k = 0; k < n; ++k)
        if (piv[k] != k) std::swap(b[k], b[piv[k]]);
    for (std::size_t i = 1; i < n; ++i) {
        double s = b[i];
        for (std::size_t j = 0; j < i; ++j) s -= lu(i, j) * b[j];
        b[i] = s;
    }
    for (std::size_t ii = n; ii-- > 0;) {
        double s = b[ii];
        for (std::size_t j = ii + 1; j < n; ++j) s -= lu(ii, j) * b[j];
        b[ii] = s / lu(ii, ii);
    }
}

bool cholesky_factor(DenseMatrix& a) {
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    for (std::size_t j = 0; j < n; ++j) {
        double d = a(j, j);
        for (std::size_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
        if (d <= 0.0) return false;
        const double ljj = std::sqrt(d);
        a(j, j) = ljj;
        const double inv = 1.0 / ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = a(i, j);
            for (std::size_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
            a(i, j) = s * inv;
        }
        for (std::size_t i = 0; i < j; ++i) a(i, j) = 0.0; // keep strict lower form
    }
    return true;
}

void cholesky_solve(const DenseMatrix& l, std::span<double> b) {
    const std::size_t n = l.rows();
    assert(b.size() == n);
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t j = 0; j < i; ++j) s -= l(i, j) * b[j];
        b[i] = s / l(i, i);
    }
    for (std::size_t ii = n; ii-- > 0;) {
        double s = b[ii];
        for (std::size_t j = ii + 1; j < n; ++j) s -= l(j, ii) * b[j];
        b[ii] = s / l(ii, ii);
    }
}

bool spd_inverse(DenseMatrix& a) {
    const std::size_t n = a.rows();
    if (!cholesky_factor(a)) return false;
    DenseMatrix inv(n, n);
    std::vector<double> col(n);
    for (std::size_t j = 0; j < n; ++j) {
        std::fill(col.begin(), col.end(), 0.0);
        col[j] = 1.0;
        cholesky_solve(a, col);
        for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
    }
    const std::uint64_t n3 = static_cast<std::uint64_t>(n) * n * n;
    blaslite::detail::charge(n3 / 3 + 2 * n3, (n * n / 2 + n * n) * sizeof(double),
                             n * n * sizeof(double));
    a = std::move(inv);
    return true;
}

void cholesky_solve_cols(const DenseMatrix& l, double* b, std::size_t ld, std::size_t nrhs) {
    const std::size_t n = l.rows();
    assert(ld >= n);
    for (std::size_t c = 0; c < nrhs; ++c) cholesky_solve(l, std::span<double>(b + c * ld, n));
}

} // namespace la
