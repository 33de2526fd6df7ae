/**
 * @file
 * CBF — the repo's versioned, checksummed columnar binary format.
 *
 * Layout (all integers little-endian):
 *
 *   offset  size  field
 *   0       8     magic "CEER.CBF"
 *   8       4     format version (currently 1)
 *   12      4     column count N
 *   16      8     total file size in bytes
 *   24      8     XXH64 checksum of the column table
 *   32      72*N  column table, one entry per column:
 *                   0   32  name (NUL-padded UTF-8, at most 31 bytes)
 *                   32  1   dtype (DType)
 *                   33  7   reserved (zero)
 *                   40  8   element count
 *                   48  8   payload byte offset (8-byte aligned)
 *                   56  8   payload byte length
 *                   64  8   XXH64 checksum of the payload
 *   ...           payload sections, each 8-byte aligned
 *
 * Doubles are stored as raw IEEE-754 bits, so round-trips are exact by
 * construction. Files are written via temp + rename (atomic against
 * concurrent readers) and loaded two ways: a checked streaming reader
 * that copies the file into an owned buffer, and an mmap path that
 * validates the header and every section checksum, then serves column
 * pointers straight out of the mapping. Every validation failure
 * reports the byte offset it was detected at and leaves outputs
 * untouched. See docs/file_formats.md for the compatibility policy.
 */

#ifndef CEER_IO_CBF_H
#define CEER_IO_CBF_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ceer {
namespace io {

/** 8-byte magic at offset 0 of every CBF file. */
extern const char kCbfMagic[8];

/** Format version written by CbfBuilder and accepted by CbfFile. */
constexpr std::uint32_t kCbfVersion = 1;

/** Element type of one column. */
enum class DType : std::uint8_t {
    F64 = 0,   ///< IEEE-754 binary64, raw bits.
    U64 = 1,   ///< Unsigned 64-bit.
    I64 = 2,   ///< Signed 64-bit (two's complement).
    U8 = 3,    ///< Unsigned byte.
    Bytes = 4, ///< Opaque byte blob (count == byte length).
};

/** Size in bytes of one element of @p dtype. */
std::size_t dtypeSize(DType dtype);

/** Human-readable dtype name for error messages. */
std::string dtypeName(DType dtype);

/**
 * XXH64 of @p size bytes at @p data with @p seed.
 *
 * Local implementation of the xxHash64 algorithm (the container has no
 * xxhash package); validated against the reference test vectors in
 * io_test.cc.
 */
std::uint64_t xxhash64(const void *data, std::size_t size,
                       std::uint64_t seed = 0);

/** One entry of a parsed column table. */
struct ColumnDesc
{
    std::string name;           ///< Column name (<= 31 bytes).
    DType dtype = DType::F64;   ///< Element type.
    std::uint64_t count = 0;    ///< Element count.
    std::uint64_t offset = 0;   ///< Payload offset from file start.
    std::uint64_t length = 0;   ///< Payload length in bytes.
    std::uint64_t checksum = 0; ///< XXH64 of the payload bytes.
};

/**
 * Accumulates columns and serializes them as one CBF file.
 *
 * Column order is preserved; re-serializing a parsed file with the
 * same columns in the same order reproduces it byte for byte.
 *
 * A builder is reusable: clear() retires the columns but keeps every
 * slot's string storage, so a clear-add-buildInto cycle on a warm
 * builder performs no heap allocation. Hot paths add borrowed columns
 * (addBorrowed), which are copied only once, into the built file.
 */
class CbfBuilder
{
  public:
    /** Adds a double column (raw IEEE-754 bits). */
    void addF64(const std::string &name, const std::vector<double> &v);

    /** Adds an unsigned 64-bit column. */
    void addU64(const std::string &name,
                const std::vector<std::uint64_t> &v);

    /** Adds a signed 64-bit column. */
    void addI64(const std::string &name,
                const std::vector<std::int64_t> &v);

    /** Adds a byte column (bools, flags). */
    void addU8(const std::string &name,
               const std::vector<std::uint8_t> &v);

    /** Adds an opaque blob column (count == byte length). */
    void addBytes(const std::string &name, const std::string &bytes);
    void addBytes(const std::string &name, const char *data,
                  std::size_t n);

    /**
     * Adds a column the builder does not copy: @p count elements of
     * @p dtype at @p data, which the caller keeps alive and unchanged
     * until the file is built. Its bytes are copied once, straight
     * into the built file. @p checksum, when given, must be the
     * payload's xxhash64; it is written as is instead of being
     * recomputed, so a payload that never changes is hashed once.
     */
    void addBorrowed(const std::string &name, DType dtype,
                     const void *data, std::size_t count,
                     const std::uint64_t *checksum = nullptr);

    /** Retires all columns but keeps slot storage for reuse. */
    void clear();

    /** Serializes the whole file into a byte string. */
    std::string build() const;

    /**
     * Serializes the whole file into @p out, reusing its capacity.
     * The first @p prefix bytes of @p out are kept (it is truncated,
     * or zero-padded, to that length first) and the file is appended
     * after them, so a caller can reserve room for its own header and
     * fill it in afterwards. The file bytes are identical to build()
     * whatever the prefix.
     */
    void buildInto(std::string *out, std::size_t prefix = 0) const;

    /** Writes build() to a stream. */
    void write(std::ostream &out) const;

    /**
     * Writes build() to @p path via a process-unique temp file plus
     * rename, so concurrent readers never observe a partial file.
     *
     * @return True on success; on failure @p error describes why and
     *         no file is left behind.
     */
    bool tryWriteFile(const std::string &path, std::string *error) const;

  private:
    struct Column
    {
        std::string name;
        DType dtype = DType::F64;
        std::uint64_t count = 0;
        std::string payload; ///< Owned bytes, unless borrowed.
        bool borrowed = false;
        const char *borrowedData = nullptr; ///< addBorrowed() bytes.
        std::size_t borrowedBytes = 0;
        bool checksumKnown = false;
        std::uint64_t checksum = 0; ///< When checksumKnown.

        const char *data() const
        {
            return borrowed ? borrowedData : payload.data();
        }
        std::size_t size() const
        {
            return borrowed ? borrowedBytes : payload.size();
        }
    };

    /** Adds a column holding a copy of @p count elements at @p data. */
    void addCopy(const std::string &name, DType dtype, const void *data,
                 std::size_t count);

    /** Claims the next column slot (reusing retired storage) and
        returns its payload string for the caller to fill. */
    std::string *nextColumn(const std::string &name, DType dtype,
                            std::uint64_t count);

    std::vector<Column> columns_;
    std::size_t used_ = 0; ///< Active slots; the rest are retired.
};

/**
 * A validated CBF file, either owned (streaming read) or mmapped.
 *
 * All header, table and per-section checksum validation happens inside
 * tryLoad/tryMap/tryParse; accessors afterwards can only fail on
 * missing columns or dtype mismatches. Move-only (the mmap variant
 * owns the mapping).
 */
class CbfFile
{
  public:
    CbfFile() = default;
    ~CbfFile();
    CbfFile(CbfFile &&other) noexcept;
    CbfFile &operator=(CbfFile &&other) noexcept;
    CbfFile(const CbfFile &) = delete;
    CbfFile &operator=(const CbfFile &) = delete;

    /**
     * Checked streaming reader: reads @p path into an owned buffer and
     * validates it. @p out is untouched on failure; @p error carries
     * byte-offset context.
     */
    static bool tryLoad(const std::string &path, CbfFile *out,
                        std::string *error);

    /**
     * mmap zero-copy path: maps @p path read-only, validates the
     * header and every section checksum against the mapping, and
     * serves column pointers straight out of it. Falls back nowhere —
     * callers that want resilience try tryLoad() next.
     */
    static bool tryMap(const std::string &path, CbfFile *out,
                       std::string *error);

    /**
     * tryMap(), falling back to tryLoad() when the mapping fails (mmap
     * can fail on exotic filesystems; the streaming reader applies the
     * identical validation). On failure @p error is tryLoad()'s.
     */
    static bool tryOpen(const std::string &path, CbfFile *out,
                        std::string *error);

    /** Validates an in-memory byte string (tests, cache probes). */
    static bool tryParse(std::string bytes, CbfFile *out,
                         std::string *error);

    /**
     * Zero-copy view parse: validates @p size bytes at @p data that
     * the CALLER keeps alive for the lifetime of @p out; accessors
     * point straight into the view. Unlike tryParse, @p out is reused
     * in place — its column table keeps its capacity across calls, so
     * re-parsing a same-schema payload on a warm CbfFile allocates
     * nothing. On failure @p out is left empty, not untouched.
     */
    static bool tryParseView(const char *data, std::size_t size,
                             CbfFile *out, std::string *error);

    /** True when the file is served from an mmap. */
    bool mapped() const { return mapped_; }

    /** Total file size in bytes. */
    std::size_t size() const { return size_; }

    /** Parsed column table, in file order. */
    const std::vector<ColumnDesc> &columns() const { return columns_; }

    /** Column descriptor by name, or nullptr when absent. */
    const ColumnDesc *find(std::string_view name) const;

    /**
     * Typed zero-copy access to a column: on success @p data points at
     * the column payload (inside the owned buffer or the mapping) and
     * @p count receives the element count. Fails on a missing column
     * or a dtype mismatch.
     */
    bool f64(std::string_view name, const double **data,
             std::size_t *count, std::string *error) const;
    bool u64(std::string_view name, const std::uint64_t **data,
             std::size_t *count, std::string *error) const;
    bool i64(std::string_view name, const std::int64_t **data,
             std::size_t *count, std::string *error) const;
    bool u8(std::string_view name, const std::uint8_t **data,
            std::size_t *count, std::string *error) const;
    bool bytes(std::string_view name, const char **data,
               std::size_t *size, std::string *error) const;

  private:
    friend class RowGroup;

    const char *columnData(const ColumnDesc &desc) const;
    template <typename T>
    bool typedColumn(std::string_view name, DType dtype, const T **data,
                     std::size_t *count, std::string *error) const;
    void reset();

    std::string owned_;          ///< Streaming-read buffer.
    const char *view_ = nullptr; ///< Caller-owned bytes (tryParseView).
    void *mapping_ = nullptr;    ///< mmap base (mapped_ only).
    std::size_t size_ = 0;       ///< Total file size.
    bool mapped_ = false;
    std::vector<ColumnDesc> columns_;
};

/**
 * Variable-length schema helpers: a list-of-strings column is stored
 * as "<name>" (Bytes, the concatenated payloads) plus "<name>.off"
 * (U64, N+1 start offsets); a list-of-f64-lists column likewise with
 * the offsets counting elements. readStringColumn/readF64ListColumn
 * validate the offset vector (monotone, in range) with column context.
 */
void addStringColumn(CbfBuilder *builder, const std::string &name,
                     const std::vector<std::string> &values);
bool readStringColumn(const CbfFile &file, const std::string &name,
                      std::vector<std::string> *out, std::string *error);
void addF64ListColumn(CbfBuilder *builder, const std::string &name,
                      const std::vector<std::vector<double>> &values);
bool readF64ListColumn(const CbfFile &file, const std::string &name,
                       std::vector<std::vector<double>> *out,
                       std::string *error);

/**
 * Fails unless the "schema" column of @p file reads @p schema. @p what
 * names the artifact with its article ("a catalog") so the error reads
 * "not a catalog CBF: schema '...' is not ceer.catalog.v1".
 */
bool checkSchema(const CbfFile &file, const char *schema,
                 const char *what, std::string *error);

/**
 * Reads one group of equal-length columns (one record type) out of a
 * CBF file. The first column read fixes the group's row count; every
 * later read checks that its column is present, has the expected
 * dtype and holds exactly that many rows. Numeric reads return
 * zero-copy pointers into the file. The first failure sticks in the
 * caller's error string and turns every later read into a no-op that
 * returns nullptr or an empty vector, so a decoder reads all of its
 * columns and then checks ok() once. Column names must outlive the
 * group (decoders pass string literals): the first one is kept for
 * error messages.
 */
class RowGroup
{
  public:
    RowGroup(const CbfFile &file, std::string *error)
        : file_(file), error_(error)
    {}

    bool ok() const { return ok_; }
    std::size_t rows() const { return rows_; }

    /** A list-of-strings column (see addStringColumn). */
    std::vector<std::string> str(const char *name);
    /** A list-of-f64-lists column (see addF64ListColumn). */
    std::vector<std::vector<double>> f64Lists(const char *name);

    const double *f64(const char *name)
    {
        return static_cast<const double *>(column(name, DType::F64));
    }
    const std::uint64_t *u64(const char *name)
    {
        return static_cast<const std::uint64_t *>(column(name, DType::U64));
    }
    const std::int64_t *i64(const char *name)
    {
        return static_cast<const std::int64_t *>(column(name, DType::I64));
    }
    const std::uint8_t *u8(const char *name)
    {
        return static_cast<const std::uint8_t *>(column(name, DType::U8));
    }

  private:
    const void *column(const char *name, DType dtype);
    bool sized(const char *name, std::size_t count);

    const CbfFile &file_;
    std::string *error_;
    const char *first_ = nullptr; ///< The column that fixed rows_.
    std::size_t rows_ = 0;
    bool ok_ = true;
};

/** What sniffFile() decided a file is. */
enum class FileFormat { Cbf, Text };

/**
 * Sniffs @p path by its first 8 bytes: kCbfMagic means CBF, anything
 * else (including files shorter than the magic) is treated as the text
 * dialect of whichever loader is asking. Fails only when the file
 * cannot be opened.
 */
bool sniffFile(const std::string &path, FileFormat *format,
               std::string *error);

/**
 * The one loader behind every artifact's tryLoadFile(): sniffs
 * @p path, hands a CBF file (opened with CbfFile::tryOpen) to
 * @p fromCbf and anything else, as a text stream, to @p fromText.
 * Every failure after the sniff is prefixed with the path, and the
 * whole load is timed into the io.load_us histogram.
 */
bool tryLoadFile(
    const std::string &path,
    const std::function<bool(const CbfFile &, std::string *)> &fromCbf,
    const std::function<bool(std::istream &, std::string *)> &fromText,
    std::string *error);

/** tryLoadFile() over an artifact's two static decoders. */
template <typename T>
bool
tryLoadFile(const std::string &path, T *out,
            bool (*fromCbf)(const CbfFile &, T *, std::string *),
            bool (*fromText)(std::istream &, T *, std::string *),
            std::string *error)
{
    return tryLoadFile(
        path,
        [&](const CbfFile &file, std::string *e) {
            return fromCbf(file, out, e);
        },
        [&](std::istream &in, std::string *e) {
            return fromText(in, out, e);
        },
        error);
}

} // namespace io
} // namespace ceer

#endif // CEER_IO_CBF_H
