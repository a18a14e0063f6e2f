static double averageArray(int[] arr, int n) {
    double result = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        result = result + arr[i];
    }
    return result / n;
}
