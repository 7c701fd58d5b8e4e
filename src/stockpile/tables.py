"""The one format of every CSV table the toolkit writes: the standard
library's writer, ``\\n`` line ends, a field quoted only when it holds a
comma, a double quote or a line feed, ``None`` as an empty field and a
float, numpy's included, as its shortest repr."""
import csv
import io


def csv_text(header, rows) -> str:
    """The CSV text of ``header`` and then each row of ``rows``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()
